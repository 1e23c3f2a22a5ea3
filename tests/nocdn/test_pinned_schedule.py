"""Pinned request schedules for the client side of page delivery.

Four NoCDN loads (direct mode, a wrapped load with a peer failover, a
tampering peer whose object is recovered from the origin, every peer
dead), the E6 baselines (``load_via_cdn`` / ``load_via_origin``) and
the Internet@home browser (``load_via_hpop`` / ``load_via_origin``).
Each run pins the sha256 of its request sequence, its answers and
``events_fired`` to literals: a reordering that run-twice tests cannot
see fails here."""

import hashlib

import pytest

from repro.cdn.baselines import BaselinePageLoader, TraditionalCdn
from repro.iah.browser import HomeBrowser
from repro.nocdn.peer import NoCdnPeerService

from tests.faults.test_nocdn_failover import build
from tests.iah.test_service import build as build_iah, visit_and_learn
from tests.nocdn.harness import NoCdnWorld


def record_requests(*clients):
    """Route every ``client.request`` of ``clients`` through a recorder;
    returns the list it fills with one tuple per request:
    (server, method, path, range, body_size, port, timeout)."""
    requests = []
    for client in clients:
        real = client.request

        def recording(server, request, *args, _real=real, **kwargs):
            requests.append((getattr(server, "name", str(server)),
                             request.method, request.path, request.range,
                             request.body_size, kwargs.get("port"),
                             kwargs.get("timeout")))
            return _real(server, request, *args, **kwargs)

        client.request = recording
    return requests


def pinned(requests, answers, sim):
    """What a run pins: request count, their sha256, answers, events."""
    return (len(requests),
            hashlib.sha256(repr(requests).encode()).hexdigest(),
            answers, sim.events_fired)


def nocdn_load(world, loader):
    """One ``PageLoader.load`` of /page0, drained past its last usage
    record."""
    requests = record_requests(loader.client)
    done = []
    loader.load(world.provider, "/page0", lambda r: done.append((
        r.completed_at, r.bytes_from_peers, r.bytes_from_origin,
        r.corrupted, r.peer_failures, r.direct_mode)))
    world.sim.run()
    return pinned(requests, done, world.sim)


def fail_peer_links(world, count):
    for i in range(count):
        world.city.network.fail_link(world.city.network.links[f"hpop-n0h{i}"])


def direct_mode():
    world = NoCdnWorld(num_peers=0)
    return nocdn_load(world, world.loader)


def peer_failover():
    world, loader = build()
    fail_peer_links(world, 1)
    return nocdn_load(world, loader)


def tampered_object():
    world = NoCdnWorld(peer_services=[NoCdnPeerService(tamper=True),
                                      NoCdnPeerService()], seed=13)
    return nocdn_load(world, world.loader)


def every_peer_dead():
    world, loader = build()
    fail_peer_links(world, len(world.peers))
    return nocdn_load(world, loader)


def baselines():
    """Two ``load_via_cdn`` (a cold edge fills from the origin, then
    hits) and one ``load_via_origin``; the edge's fills are recorded
    too."""
    world = NoCdnWorld(num_peers=0)
    cdn = TraditionalCdn(world.provider, world.city.network)
    edge = cdn.deploy_edge(world.city.server_sites["edge"].servers[0])
    loader = BaselinePageLoader(world.client_device, world.city.network)
    requests = record_requests(loader.client, edge.client)
    done = []

    def report(r):
        done.append((r.completed_at, r.bytes_from_peers, r.bytes_from_origin,
                     r.direct_mode))

    for _ in range(2):
        loader.load_via_cdn(cdn, "/page0", report)
        world.sim.run()
    loader.load_via_origin(world.provider, "/page0", report)
    world.sim.run()
    return pinned(requests, done, world.sim)


def home_browser():
    """A gather, then ``load_via_hpop`` warm and cold, then
    ``load_via_origin``; the service's upstream fetches are recorded
    too."""
    sim, city, site, services, hpops = build_iah(num_homes=1,
                                                 aggressiveness=1.0)
    svc = services[0]
    browser = HomeBrowser(city.neighborhoods[0].homes[0].devices[0],
                          city.network)
    requests = record_requests(browser.client, svc._client)
    visit_and_learn(svc, site, ["/page0"])
    done = []
    svc.gather(lambda: done.append(("gather", sim.now)))
    sim.run()

    def report(r):
        done.append((r.url, r.completed_at, r.object_count, r.bytes_total,
                     r.cache_hits, r.cache_misses, r.lateral_hits))

    for url in ("/page0", "/page2"):
        browser.load_via_hpop(hpops[0].host, site, url, report)
        sim.run()
    browser.load_via_origin(site, "/page0", report)
    sim.run()
    return pinned(requests, done, sim)


RUNS = {
    "direct_mode": direct_mode,
    "peer_failover": peer_failover,
    "tampered_object": tampered_object,
    "every_peer_dead": every_peer_dead,
    "baselines": baselines,
    "home_browser": home_browser,
}

def peer_failures(*homes):
    """(object, peer) for every object of /page0, peer by peer."""
    return [(name, f"nbhd0-home{home}-hpop") for home in homes
            for name in ("page0-obj0.bin", "page0-obj1.bin", "page0-obj2.bin",
                         "page0-obj3.bin", "page0.html")]


# name -> (requests, sha256 of their sequence, answers, events_fired)
PINNED = {
    "baselines": (
        20, "9c90e595298815501fb76af5512256e876f54bf6b7cd60f2369aa6b28efe40ad",
        [(0.31329948630136983, 220000, 0, False),
         (0.36428501712328765, 220000, 0, False),
         (0.5103810787671232, 0, 220000, True)], 115),
    "direct_mode": (
        6, "b996f1b924d1947b73a73d54e055ed8e4b703355516fc9928d42fcc19d2da7d9",
        [(0.19584246575342465, 0, 220000, [], [], True)], 30),
    # The origin filled every chunk, so no peer is credited: five fewer
    # requests (usage-record POSTs to the dead assigned peer) than when
    # the failed peer was credited with the origin's bytes.
    "every_peer_dead": (
        27, "d3997a848abb1d09e7064115591887ba09a3bc93d502bcc29043e8ad15f4c87f",
        [(0.18226647260273973, 0, 220000, [], peer_failures(0, 1, 2, 3),
          False)], 55),
    "home_browser": (
        22, "6bdccfd24e1f8f711f5232c2e16064876218ce120a0a82cdc905b72e6bac6aa2",
        [("gather", 0.12451712328767123),
         ("/page0", 0.12522465753424658, 4, 135000, 4, 0, 0),
         ("/page2", 0.17895870630136987, 4, 135000, 0, 4, 0),
         ("/page0", 0.3034758295890411, 4, 135000, 0, 4, 0)], 112),
    "peer_failover": (
        17, "d49a4bb379edadcda7227d1046b19aabd2cb006571bf742ae978533b32ae493e",
        [(0.28073102739726025, 220000, 0, [], peer_failures(0), False)], 92),
    "tampered_object": (
        16, "3b2a20ea0295a7cdd6c37233e2fdda2aeaa7befe409086a6b95ca668f2ea0a0a",
        [(0.3324748623287671, 220000, 170000,
          [("page0.html", "nbhd0-home0-hpop"),
           ("page0-obj1.bin", "nbhd0-home0-hpop"),
           ("page0-obj2.bin", "nbhd0-home0-hpop"),
           ("page0-obj3.bin", "nbhd0-home0-hpop")], [], False)], 114),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_every_request_and_answer_is_pinned(name):
    assert RUNS[name]() == PINNED[name]
