"""Counts, not timings: what an idle NoCDN home costs.

Most homes of a fleet do nothing in any given interval. A home that
signed up and never served keeps no HTTP client, no metrics registry
and no flow set of its own: each is born on first use. The ratchet
below counts the collector-tracked objects each added home brings and
may only fall.
"""

import gc

from repro.nocdn.origin import ContentProvider
from repro.nocdn.peer import NoCdnPeerService
from repro.util.units import mib
from repro.workloads.nocdn import NoCdnWorld
from repro.workloads.web import make_catalog

# Tracked objects per idle home on the city below; it read 104 while
# every home built its client, registries and flow sets up front.
MAX_TRACKED_PER_IDLE_HOME = 75


def idle_city(homes):
    """A one-neighbourhood city whose every home runs a signed-up peer
    (the platform benchmark's NoCDN fleet shape), before any load."""
    world = NoCdnWorld(
        7, homes, lambda _sim: make_catalog(), devices_per_home=1,
        strategy="sharded",
        provider=lambda w: ContentProvider(
            "news.example", w.origin, w.city.network, w.catalog,
            strategy=w.strategy, directory=w.directory, max_fallbacks=3),
        peers=homes, clients=0,
        services=lambda _i: [NoCdnPeerService(cache_bytes=mib(64))])
    return world.city, world.peers


def tracked_objects(homes):
    gc.collect()
    before = len(gc.get_objects())
    world = idle_city(homes)
    gc.collect()
    tracked = len(gc.get_objects()) - before
    assert world
    return tracked


def test_an_idle_home_allocates_only_its_own_state():
    tracked_objects(10)      # one-time imports, caches and interning
    per_home = (tracked_objects(200) - tracked_objects(100)) / 100
    assert per_home <= MAX_TRACKED_PER_IDLE_HOME


def test_idle_state_is_born_on_first_use():
    city, peers = idle_city(4)
    peer = peers[0]
    assert peer._client is None
    cache = peer.signup_for("news.example").cache
    assert cache._metrics is None
    link = city.neighborhoods[0].homes[0].access_link
    assert link.forward._flows is link.reverse._flows  # the shared empty set
    assert link.forward._bins is None
    # A reader of an unborn registry sees zeroed counters.
    assert cache.metrics.snapshot() == {
        "http_cache.cache_hits": 0.0, "http_cache.cache_misses": 0.0,
        "http_cache.cache_stale": 0.0}
