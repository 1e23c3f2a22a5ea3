"""Property tests for the consistent-hash ring and content directory.

The ring underpins the sharded strategies: every key must always find
a live owner (total coverage), two rings over the same peer set must
agree (determinism — the origin and any observer compute identical
placements), and membership changes must only move the arcs that
touched the changed peer (bounded remapping, the consistent-hashing
contract). The directory property is convergence: once gossip
quiesces, its entries mirror the caches they describe.
"""

import gc
import random
import tracemalloc
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.http.cache import HttpCache
from repro.http.content import WebObject
from repro.nocdn import strategy as strategy_module
from repro.nocdn.directory import ContentDirectory, DirectoryPublisher
from repro.nocdn.strategy import RING_SPACE, HashRing
from repro.sim.engine import Simulator

# Rings are immutable w.r.t. key lookups, so build each fleet size once.
_RINGS = {}


def ring_for(n, vnodes=64):
    if (n, vnodes) not in _RINGS:
        ring = HashRing(vnodes=vnodes)
        for i in range(n):
            ring.add_peer(f"peer{i}")
        _RINGS[(n, vnodes)] = ring
    return _RINGS[(n, vnodes)]


def peer_ids(n):
    return {f"peer{i}" for i in range(n)}


keys = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-/._", min_size=1,
    max_size=24)


class TestRingCoverage:
    @given(n=st.integers(1, 40), key=keys)
    @settings(max_examples=150, deadline=None)
    def test_every_key_has_a_live_owner(self, n, key):
        ring = ring_for(n)
        owner = ring.owner(key, peer_ids(n))
        assert owner is not None
        assert owner in peer_ids(n)

    @given(n=st.integers(2, 40), key=keys, data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_owner_respects_live_restriction(self, n, key, data):
        ring = ring_for(n)
        seed = data.draw(st.integers(0, 2**31), label="live_seed")
        rng = random.Random(seed)
        live = set(rng.sample(sorted(peer_ids(n)), rng.randint(1, n)))
        owner = ring.owner(key, live)
        assert owner in live

    def test_empty_live_set_has_no_owner(self):
        ring = ring_for(3)
        assert ring.owner("anything", set()) is None
        assert HashRing().owner("anything", {"peer0"}) is None


class TestRingDeterminism:
    @given(n=st.integers(1, 20), key=keys, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_insertion_order_is_irrelevant(self, n, key, data):
        seed = data.draw(st.integers(0, 2**31), label="order_seed")
        shuffled = sorted(peer_ids(n))
        random.Random(seed).shuffle(shuffled)
        other = HashRing()
        for pid in shuffled:
            other.add_peer(pid)
        assert other.owner(key, peer_ids(n)) == \
            ring_for(n).owner(key, peer_ids(n))

    @given(n=st.integers(2, 20), key=keys)
    @settings(max_examples=100, deadline=None)
    def test_remove_equals_never_added(self, n, key):
        removed = HashRing()
        for i in range(n):
            removed.add_peer(f"peer{i}")
        removed.remove_peer(f"peer{n - 1}")
        assert removed.owner(key, peer_ids(n - 1)) == \
            ring_for(n - 1).owner(key, peer_ids(n - 1))


class TestBoundedRemapping:
    @given(n=st.integers(2, 40), key=keys, data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_leave_only_remaps_the_leavers_keys(self, n, key, data):
        ring = ring_for(n)
        victim = data.draw(
            st.sampled_from(sorted(peer_ids(n))), label="victim")
        before = ring.owner(key, peer_ids(n))
        after = ring.owner(key, peer_ids(n) - {victim})
        if before != victim:
            assert after == before

    @given(n=st.integers(1, 40), key=keys)
    @settings(max_examples=150, deadline=None)
    def test_join_only_steals_the_joiners_keys(self, n, key):
        # ring_for(n + 1) is ring_for(n) plus one joiner: any key the
        # joiner does not own keeps its previous owner.
        joined = ring_for(n + 1)
        after = joined.owner(key, peer_ids(n + 1))
        if after != f"peer{n}":
            assert after == ring_for(n).owner(key, peer_ids(n))

    @given(n=st.integers(2, 40))
    @settings(max_examples=60, deadline=None)
    def test_remapped_share_is_bounded(self, n):
        # The keyspace fraction a single membership change moves is
        # exactly the changed peer's arc share; with 128 vnodes it
        # concentrates near 1/n, and 2/n bounds it with enormous
        # margin (the deviation is ~11 sigma for every fleet size).
        ring = ring_for(n, vnodes=128)
        shares = ring.arc_shares(peer_ids(n))
        assert abs(sum(shares.values()) - 1.0) < 1e-9
        assert max(shares.values()) <= 2.0 / n

    def test_arc_shares_respect_live_set(self):
        ring = ring_for(6, vnodes=128)
        live = {"peer0", "peer3"}
        shares = ring.arc_shares(live)
        assert set(shares) == live
        assert abs(sum(shares.values()) - 1.0) < 1e-9


ring_ops = st.lists(
    st.tuples(st.sampled_from(["add", "remove", "lookup"]),
              st.integers(0, 11)),                     # peer index
    min_size=1, max_size=60)


def bulk_built(peers, vnodes):
    fresh = HashRing(vnodes=vnodes)
    for pid in sorted(peers):
        fresh.add_peer(pid)
    fresh.arc_shares(peers)  # any lookup applies what is pending
    return fresh


class TestIncrementalRing:
    """The ring applies joins and leaves to its sorted arrays in place of
    rebuilding them; whatever the history, the arrays must be the ones
    a bulk build of the same peer set produces."""

    @given(op_list=ring_ops, vnodes=st.sampled_from([1, 3, 64]),
           point_space=st.sampled_from([None, 16]))
    @settings(max_examples=200, deadline=None)
    def test_any_history_equals_a_bulk_build(self, op_list, vnodes,
                                             point_space):
        # A tiny hash space makes different peers collide on the same
        # point, so the (point, peer) tie order is exercised too.
        real = strategy_module._hash_point
        squeezed = (real if point_space is None
                    else lambda token: real(token) % point_space)
        with mock.patch.object(strategy_module, "_hash_point", squeezed):
            ring = HashRing(vnodes=vnodes)
            peers = set()
            for op, i in op_list:
                pid = f"peer{i}"
                if op == "add":
                    ring.add_peer(pid)
                    peers.add(pid)
                elif op == "remove":
                    ring.remove_peer(pid)
                    peers.discard(pid)
                else:
                    assert ring.owner(f"key{i}", peers) == \
                        bulk_built(peers, vnodes).owner(f"key{i}", peers)
            assert ring.peers == peers
            shares = ring.arc_shares(peers)
            fresh = bulk_built(peers, vnodes)
            assert ring._points == fresh._points
            assert ring._owners == fresh._owners
            assert len(ring._points) == vnodes * len(peers)
            assert shares == fresh.arc_shares(peers)
            if peers and point_space is None:
                assert abs(sum(shares.values()) - 1.0) < 1e-9

    def test_single_peer_change_hashes_only_that_peer(self, monkeypatch):
        ring = HashRing()
        members = {f"peer{i}" for i in range(500)}
        for pid in members:
            ring.add_peer(pid)
        ring.arc_shares(members)
        hashed = []
        real = strategy_module._hash_point
        monkeypatch.setattr(
            strategy_module, "_hash_point",
            lambda token: hashed.append(token) or real(token))
        ring.add_peer("joiner")
        ring.arc_shares(members)
        assert sorted(hashed) == sorted(
            f"joiner#{v}".encode() for v in range(ring.vnodes))
        del hashed[:]
        ring.remove_peer("peer7")
        ring.arc_shares(members)
        assert hashed == []
        ring.add_peer("flapper")      # joins and leaves between two
        ring.remove_peer("flapper")   # lookups: never hashed at all
        ring.remove_peer("peer8")     # leaves and rejoins: points kept
        ring.add_peer("peer8")
        ring.arc_shares(members)
        assert hashed == []
        assert ring._owners == bulk_built(ring.peers, 64)._owners


class TestRingMemory:
    # Bytes per vnode a bulk-built ring holds: an 8-byte array slot per
    # point and an 8-byte owner slot. A list of Python ints read 52.6.
    MAX_BYTES_PER_VNODE = 20

    def test_bulk_built_ring_bytes_per_vnode(self):
        members = {f"peer{i}" for i in range(1000)}
        gc.collect()
        tracemalloc.start()
        try:
            ring = HashRing()
            for pid in members:
                ring.add_peer(pid)
            assert ring.owner("key", members) in members  # the bulk build
            held, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ring._points) == 64 * len(members)
        assert held / len(ring._points) <= self.MAX_BYTES_PER_VNODE


ops = st.lists(
    st.tuples(st.integers(0, 3),                       # peer index
              st.sampled_from(["store", "evict"]),     # cache mutation
              st.sampled_from([f"obj{i}" for i in range(6)])),
    min_size=0, max_size=40)


class TestDirectoryConvergence:
    @given(op_list=ops, gossip=st.sampled_from([0.0, 5.0]))
    @settings(max_examples=80, deadline=None)
    def test_directory_matches_caches_after_quiesce(self, op_list, gossip):
        sim = Simulator(seed=7)
        directory = ContentDirectory(sim, gossip_interval=gossip)
        caches, publishers = [], []
        for i in range(4):
            pub = DirectoryPublisher(directory, f"peer{i}", "site",
                                     endpoint=(None, 0))
            cache = HttpCache(
                10**9, default_ttl=1e9,
                on_evict=lambda key, _e, _pub=pub: _pub.note_evict(key))
            caches.append(cache)
            publishers.append(pub)
        for peer, op, name in op_list:
            if op == "store":
                if caches[peer].store(WebObject(name, 1000), sim.now):
                    publishers[peer].note_store(name)
            else:
                caches[peer].invalidate(name)  # on_evict announces it
        for pub in publishers:
            pub.flush()
        # Convergence: the quiesced directory and the actual cache
        # contents are the same relation, in both directions.
        claimed = {(key[1], pid)
                   for key, holders in directory.entries().items()
                   for pid in holders}
        actual = {(name, f"peer{i}")
                  for i, cache in enumerate(caches)
                  for name in [f"obj{j}" for j in range(6)]
                  if cache.contains(name)}
        assert claimed == actual

    def test_staleness_is_bounded_by_gossip_interval(self):
        sim = Simulator(seed=3)
        directory = ContentDirectory(sim, gossip_interval=10.0)
        pub = DirectoryPublisher(directory, "peer0", "site",
                                 endpoint=(None, 0))
        pub.note_store("obj0")
        assert directory.holders("site", "obj0") == []  # not yet flushed
        sim.run_until(30.0)  # weak gossip ticks fire as time passes
        assert directory.holders("site", "obj0") == ["peer0"]
        hist = directory.metrics.histograms["directory_staleness_seconds"]
        assert hist.count == 1
        assert 0.0 <= hist.quantile(1.0) <= directory.staleness_bound

    def test_drop_peer_forgets_everything_at_once(self):
        sim = Simulator(seed=3)
        directory = ContentDirectory(sim, gossip_interval=0.0)
        for i in range(2):
            pub = DirectoryPublisher(directory, f"peer{i}", "site",
                                     endpoint=(None, 0))
            pub.note_store("obj0")
            pub.note_store(f"only{i}")
        assert directory.drop_peer("peer0") == 2
        assert directory.holders("site", "obj0") == ["peer1"]
        assert directory.holders("site", "only0") == []
        assert directory.drop_peer("peer0") == 0


class TestRingSpace:
    def test_single_peer_owns_everything(self):
        ring = HashRing(vnodes=1)
        ring.add_peer("solo")
        shares = ring.arc_shares({"solo"})
        assert shares == {"solo": 1.0}
        assert RING_SPACE == 1 << 64
