"""Regression: a catalog update must reach the client, and nobody honest
is blamed for it.

After ``ContentCatalog.update_object`` the origin's page names the new
version. Two paths used to get this wrong:

- a reused wrapper (``wrapper_reuse_ttl``) kept the old page and its
  old hashes, so the client silently accepted the old version;
- a peer still holding a FRESH copy of the old version served it
  against the new wrapper's hash, and the client reported that honest
  peer for corruption and re-fetched the object from the origin.

The loader's peer GET now says which version it wants (``If-Match``
the wrapper object's ETag); a peer treats a cached copy of another
version as a miss.
"""

from repro.http.messages import HttpRequest
from repro.nocdn.peer import HOP_HEADER, NoCdnPeerService

from tests.nocdn.harness import NoCdnWorld


def load_update_load(**world_kwargs):
    world = NoCdnWorld(num_peers=2, seed=20, **world_kwargs)
    world.load_page("/page0")
    name = world.catalog.page("/page0").embedded[0].name
    updated = world.catalog.update_object(name)
    return world, updated, world.load_page("/page0")


def cached_version(peer, name):
    _disposition, entry = peer.signup_for("news.example").cache.lookup(
        name, peer.sim.now)
    return None if entry is None else entry.obj.version


class TestWrapperReuseAfterUpdate:
    def test_reused_wrapper_is_dropped_when_its_page_changes(self):
        world, _updated, result = load_update_load(wrapper_reuse_ttl=1000.0)
        assert world.provider.wrappers_reused == 0
        assert world.provider.wrappers_issued == 2
        assert result.corrupted == []

    def test_the_client_gets_the_new_version(self):
        world, updated, _result = load_update_load(wrapper_reuse_ttl=1000.0)
        holders = [p for p in world.peers
                   if cached_version(p, updated.name) is not None]
        assert holders
        assert all(cached_version(p, updated.name) == updated.version
                   for p in holders)


class TestFreshOlderVersionAtAPeer:
    def test_honest_peer_is_not_blamed(self):
        world, _updated, result = load_update_load()
        assert result.corrupted == []
        assert result.bytes_from_origin == 0
        assert all(info.corruption_reports == 0 and info.trust == 1.0
                   for info in world.provider.peers.values())

    def test_the_peer_refills_the_new_version(self):
        world = NoCdnWorld(num_peers=2, seed=20)
        world.load_page("/page0")
        name = world.catalog.page("/page0").embedded[0].name
        [held_old] = [p for p in world.peers
                      if cached_version(p, name) is not None]
        updated = world.catalog.update_object(name)
        world.load_page("/page0")
        assert cached_version(held_old, name) == updated.version

    def test_a_forwarded_request_for_another_version_is_a_miss(self):
        world, updated, _result = load_update_load()
        holder = next(p for p in world.peers
                      if cached_version(p, updated.name) is not None)
        answers = []
        stale = updated.bump_version()  # a version this peer never held
        for etag in (stale.etag, updated.etag):
            holder._serve_content(
                HttpRequest("GET", f"/nocdn/news.example/{updated.name}",
                            headers={HOP_HEADER: "1", "If-Match": etag}),
                answers.append)
        assert [a.status for a in answers] == [404, 200]
        assert holder.forwarded_misses == 1
        assert holder.forwarded_served == 1


def test_peer_without_if_match_serves_what_it_holds():
    """A request that names no version is served whatever FRESH copy
    the peer holds."""
    world = NoCdnWorld(peer_services=[NoCdnPeerService()], seed=20)
    world.load_page("/page0")
    peer = world.peers[0]
    name = world.catalog.page("/page0").embedded[0].name
    answers = []
    peer._serve_content(HttpRequest("GET", f"/nocdn/news.example/{name}"),
                        answers.append)
    assert [a.status for a in answers] == [200]
    assert answers[0].body.obj.version == 1
