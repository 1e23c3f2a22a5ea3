"""E7 — NoCDN integrity and accounting under untrusted peers (SIV-B).

The paper's three adversarial requirements, each driven end to end:

- **Content integrity**: a tampering peer's objects fail the wrapper's
  SHA-256 check; the loader recovers from the origin; the user never
  renders corrupt content; the peer loses trust and is expelled.
- **Accurate accounting**: inflated usage records break their HMAC;
  replayed records trip the nonce registry; over-cap claims exceed the
  wrapper's authorization. None of them get paid.
- **Collusion**: a client/peer pair generating valid-but-fake traffic
  sticks out of the payable-bytes distribution and is flagged.
"""

import random

from repro.metrics.report import ExperimentReport
from repro.nocdn.peer import NoCdnPeerService
from repro.nocdn.records import make_record
from repro.workloads.nocdn import NoCdnWorld, seeded_catalog


def build_world(peer_services, seed=7):
    """``peer_services`` in the first homes, signed up; one client."""
    world = NoCdnWorld(seed, len(peer_services) + 4, seeded_catalog(4, seed),
                       peers=len(peer_services),
                       services=lambda i: [peer_services[i]])
    return world, world.provider


def experiment():
    report = ExperimentReport(
        "E7", "NoCDN under attack: integrity, accounting, collusion",
        columns=("attack", "attempted", "caught", "user-visible damage"))

    # -- tampering -------------------------------------------------------
    tamperer = NoCdnPeerService(tamper=True)
    honest = NoCdnPeerService()
    world, provider = build_world([tamperer, honest])
    corrupted_total, recovered_pages = 0, 0
    for page in world.catalog.pages()[:3]:
        result = world.load_page(page.url)
        corrupted_total += len(result.corrupted)
        complete = result.total_bytes >= page.total_size
        recovered_pages += complete
    tamper_info = provider.peers[tamperer.peer_id]
    report.add_row("content tampering", corrupted_total,
                   tamper_info.corruption_reports,
                   "none (hash check + origin recovery)")
    report.check(
        "tampered objects are detected and recovered",
        "every corrupted object caught; every page completes intact",
        f"{corrupted_total} corruptions, {recovered_pages}/3 pages complete",
        corrupted_total > 0 and recovered_pages == 3
        and tamper_info.corruption_reports == corrupted_total)
    report.check(
        "tampering peer loses trust and is expelled",
        "trust collapses below the expulsion threshold",
        f"trust={tamper_info.trust:.4f}, expelled={tamper_info.expelled}",
        tamper_info.expelled)

    # -- inflation --------------------------------------------------------
    cheater = NoCdnPeerService(inflate_factor=3.0)
    world, provider = build_world([cheater], seed=71)
    world.load_page(world.catalog.pages()[0].url)
    cheater.flush_usage()
    world.sim.run()
    audit = provider.audit
    report.add_row("record inflation", audit.rejected_bad_signature,
                   audit.rejected_bad_signature, "payment denied")
    report.check(
        "inflated records fail HMAC verification",
        "all inflated records rejected, zero payable bytes",
        f"{audit.rejected_bad_signature} rejected, "
        f"payable={provider.payable_bytes.get(cheater.peer_id, 0)}",
        audit.rejected_bad_signature > 0
        and provider.payable_bytes.get(cheater.peer_id, 0) == 0)

    # -- replay -------------------------------------------------------------
    replayer = NoCdnPeerService(replay_records=True)
    world, provider = build_world([replayer], seed=72)
    world.load_page(world.catalog.pages()[0].url)
    replayer.flush_usage()
    world.sim.run()
    accepted_first = provider.audit.accepted_records
    replayer.flush_usage()
    world.sim.run()
    report.add_row("record replay", provider.audit.rejected_replay,
                   provider.audit.rejected_replay, "no double payment")
    report.check(
        "replayed records are rejected by the nonce registry",
        "second upload adds zero accepted records",
        f"accepted stayed {accepted_first}, "
        f"{provider.audit.rejected_replay} replays rejected",
        provider.audit.accepted_records == accepted_first
        and provider.audit.rejected_replay > 0)

    # -- over-cap collusion claim ---------------------------------------------
    peer = NoCdnPeerService()
    world, provider = build_world([peer], seed=73)
    page = world.catalog.pages()[0]
    wrapper = provider.build_wrapper(page)
    key = wrapper.peer_keys[peer.peer_id]
    bogus = make_record(wrapper.wrapper_id, peer.peer_id,
                        page.container.name, 10 ** 10, "fat-nonce", key)
    provider._audit_record(peer.peer_id, bogus)
    report.add_row("over-cap claim", 1, provider.audit.rejected_over_cap,
                   "claim bounded by wrapper authorization")
    report.check(
        "claims beyond the wrapper's authorization are rejected",
        "record for 10 GB against a KB-scale cap is refused",
        f"rejected_over_cap={provider.audit.rejected_over_cap}",
        provider.audit.rejected_over_cap == 1)

    # -- collusion volume anomaly ------------------------------------------------
    peers = [NoCdnPeerService() for _ in range(5)]
    world, provider = build_world(peers, seed=74)
    page = world.catalog.pages()[0]
    colluder = peers[0].peer_id
    rng = random.Random(740)
    for _ in range(40):
        wrapper = provider.build_wrapper(page)
        target = colluder if colluder in wrapper.peer_keys else None
        if target:
            cap = wrapper.expected_bytes_for(target)
            if cap:
                record = make_record(
                    wrapper.wrapper_id, target, page.container.name,
                    min(cap, page.container.size),
                    f"n{rng.random()}", wrapper.peer_keys[target])
                provider._audit_record(target, record)
    for pid in [p.peer_id for p in peers[1:]]:
        wrapper = provider.build_wrapper(page)
        if pid in wrapper.peer_keys:
            cap = wrapper.expected_bytes_for(pid)
            if cap:
                record = make_record(
                    wrapper.wrapper_id, pid, page.container.name,
                    min(cap, 2_000), f"m{rng.random()}",
                    wrapper.peer_keys[pid])
                provider._audit_record(pid, record)
    flagged = provider.anomalous_peers(factor=5.0)
    report.add_row("client+peer collusion", 1,
                   int(colluder in flagged), "flagged for review / capping")
    report.check(
        "colluding volume sticks out of the payable distribution",
        "colluder flagged by the >5x-median anomaly detector",
        f"flagged={flagged}", colluder in flagged)
    return report
