#!/usr/bin/env python3
"""NoCDN (paper SIV-B): a site recruits HPoP peers and survives a surge.

A news site replaces its CDN contract with recruited residential peers:

1. eight HPoPs sign up as NoCDN peers,
2. readers load pages — the origin serves only small wrapper pages
   while peers deliver the bytes,
3. a flash crowd hits; the origin's byte load stays flat,
4. one peer starts tampering with content: every corruption is caught
   by the wrapper hashes, recovered from the origin, and the peer is
   expelled,
5. the site settles the epoch, paying only cryptographically verified
   usage records.

Run:  python examples/nocdn_site.py
"""

import random

from repro.nocdn.origin import ContentProvider
from repro.nocdn.selection import AffinitySelection
from repro.util.units import format_bytes
from repro.workloads.nocdn import NoCdnWorld, seeded_catalog
from repro.workloads.web import ZipfPagePopularity

NUM_PEERS = 8
NUM_READERS = 6


def main() -> None:
    # --- 1. recruit peers -------------------------------------------------
    world = NoCdnWorld(
        3, NUM_PEERS + NUM_READERS, seeded_catalog(6, 30),
        provider=lambda w: ContentProvider(
            "daily.example", w.origin, w.city.network, w.catalog,
            selection=AffinitySelection(spread=2), payment_per_gib=0.05),
        peers=NUM_PEERS, clients=NUM_READERS)
    sim, catalog, provider = world.sim, world.catalog, world.provider
    peers, readers = world.peers, world.loaders
    print(f"{len(peers)} residential peers signed up with "
          f"{provider.site_name} (compensated per verified GiB)")

    pop = ZipfPagePopularity(catalog, alpha=0.9, rng=random.Random(31))

    # --- 2. normal browsing ---------------------------------------------------
    results = []
    for reader in readers:
        urls = pop.draw_many(5)

        def chain(i=0, r=reader, urls=urls):
            if i < len(urls):
                r.load(provider, urls[i],
                       lambda res: (results.append(res), chain(i + 1, r, urls)))

        chain()
    sim.run()
    peer_bytes = sum(r.bytes_from_peers for r in results)
    origin_bytes = provider.origin_bytes_served
    print(f"\n{len(results)} page loads: peers delivered "
          f"{format_bytes(peer_bytes)}; origin served "
          f"{format_bytes(origin_bytes)} (wrappers + cold cache fills)")
    assert peer_bytes > origin_bytes

    # --- 3. flash crowd --------------------------------------------------------
    before = provider.origin_bytes_served
    crowd_results = []
    hot_url = catalog.pages()[0].url
    for reader in readers:
        for _ in range(4):
            reader.load(provider, hot_url, crowd_results.append)
    sim.run()
    surge_origin = provider.origin_bytes_served - before
    surge_peers = sum(r.bytes_from_peers for r in crowd_results)
    print(f"flash crowd ({len(crowd_results)} loads of {hot_url}): peers "
          f"absorbed {format_bytes(surge_peers)}, origin only "
          f"{format_bytes(surge_origin)} more")

    # --- 4. a peer turns malicious ----------------------------------------------
    rogue = peers[0]
    rogue.tamper = True
    attack_results = []
    for reader in readers[:3]:
        reader.load(provider, hot_url, attack_results.append)
    sim.run()
    corruptions = sum(len(r.corrupted) for r in attack_results)
    rogue_info = provider.peers[rogue.peer_id]
    print(f"\npeer {rogue.peer_id} began tampering: {corruptions} corrupt "
          f"objects detected by SHA-256 checks, all recovered from the "
          f"origin; trust -> {rogue_info.trust:.3f}, "
          f"expelled={rogue_info.expelled}")
    assert all(r.total_bytes >= catalog.pages()[0].total_size
               for r in attack_results), "a reader saw an incomplete page"

    # --- 5. settlement --------------------------------------------------------------
    for peer in peers:
        peer.flush_usage()
    sim.run()
    audit = provider.audit
    payments = provider.settle_epoch()
    print(f"\nsettlement: {audit.accepted_records} verified usage records "
          f"({format_bytes(audit.accepted_bytes)}), "
          f"{audit.rejected_total} rejected")
    for peer_id, amount in sorted(payments.items()):
        print(f"  {peer_id}: ${amount:.6f}")
    assert payments, "no peer earned anything"
    print("\nNoCDN site scenario OK")


if __name__ == "__main__":
    main()
