"""Collaborative cache-placement strategies for NoCDN fleets.

At neighborhood scale the paper's naive per-peer cache is fine: any
peer asked for an object fills it from the origin and keeps a copy. At
10k+ homes that shape collapses — every peer re-fetches the same hot
objects, so origin offload stays near zero no matter how much edge
storage the fleet has. The collaborative-caching literature (Home-Box
cooperative caching, fCDN) fixes this by giving objects *homes*:

- ``NaiveStrategy`` — the paper's per-peer cache (baseline),
- ``ShardedStrategy`` — consistent-hash sharding: each object has one
  home peer in the fleet; requests route to it, so the fleet caches
  each object once,
- ``ReplicateHotStrategy`` — the top-k objects by observed popularity
  replicate everywhere demand takes them; the cold tail stays sharded.

A strategy is consulted at two points: the origin's wrapper assignment
(via :class:`StrategySelection`) decides which peer a client fetches
each object from, and the peer's serve path decides whether to keep a
filled object (``should_cache``). Ownership is always computed against
the *live* peer set at call time, so a quarantined or crashed peer's
shard range re-homes to its ring successors with no explicit
migration step — exactly the behavior the controller's quarantine rule
needs.
"""

from __future__ import annotations

import bisect
import hashlib
import random
import sys
from array import array
from itertools import chain, compress, count, islice, repeat
from operator import and_, eq, or_, rshift
from typing import (AbstractSet, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Set, Tuple, TYPE_CHECKING)

from repro.nocdn.selection import SelectionPolicy, UsablePeers

if TYPE_CHECKING:  # pragma: no cover
    from repro.nocdn.directory import ContentDirectory

RING_SPACE = 1 << 64


# Ring points: one unsigned 64-bit int per vnode, 8 bytes in place.
POINT_TYPECODE = "Q"
_digest = type(hashlib.sha256()).digest


def _hash_points(tokens: Iterable[bytes]) -> array:
    """The ring positions of ``tokens``, in order: every ring hash goes
    through here. A position is the first 8 bytes of the token's
    SHA-256, big-endian; the digests are hashed, joined and cut by C
    loops, one Python call for any number of tokens."""
    digests = memoryview(b"".join(map(_digest, map(hashlib.sha256, tokens))))
    points = array(POINT_TYPECODE,
                   digests.cast(POINT_TYPECODE)[::4].tobytes())
    if sys.byteorder == "little":
        points.byteswap()
    return points


def _vnode_tokens(peers: Iterable[str], suffixes: List[bytes],
                  ) -> Iterable[bytes]:
    """``peer#v`` for each peer and each vnode suffix ``#v``, rank-major."""
    return chain.from_iterable(map(peer_id.encode().__add__, suffixes)
                               for peer_id in peers)


def _packed_run(peers: List[str], suffixes: List[bytes],
                ) -> Tuple[array, List[str], bool]:
    """Sort each vnode as one packed int, ``(point << bits) | rank``
    with ``rank`` its peer's index in ``peers``: no tuple per vnode.
    The points come out sorted, and tied points in rank order; the
    points array and the owners list are read straight off the one
    sorted run. Also says whether any two points tie."""
    bits = max(1, (len(peers) - 1).bit_length())
    # One lazy run per peer, C-speed within it: hash the peer's tokens,
    # shift each point, or in the rank.
    runs = (map(or_, map(int.__lshift__,
                         _hash_points(_vnode_tokens((peer_id,), suffixes)),
                         repeat(bits)),
                repeat(rank))
            for rank, peer_id in enumerate(peers))
    packed = sorted(chain.from_iterable(runs))
    points = array(POINT_TYPECODE, map(rshift, packed, repeat(bits)))
    owners = list(map(peers.__getitem__,
                      map(and_, packed, repeat((1 << bits) - 1))))
    return points, owners, any(map(eq, points, islice(points, 1, None)))


def _numpy_run(peers: List[str], suffixes: List[bytes],
               ) -> Tuple[array, List[str], bool]:
    """What ``_packed_run`` returns, sorted by numpy.

    The points are hashed a batch of peers at a time into one
    ``uint64`` array laid out rank-major, so a stable argsort leaves
    tied points in rank order, as the packed sort does. The owners are
    read off an object array of the peers by ``order // vnodes``: no
    Python int per vnode. Each transient is freed once the next is
    built, so the largest are three 8-byte-per-vnode arrays at once.
    """
    import numpy as np

    vnodes = len(suffixes)
    hashed = np.empty(len(peers) * vnodes, np.uint64)
    per_batch = max(1, _HASH_BATCH // vnodes)
    for start in range(0, len(peers), per_batch):
        batch = peers[start:start + per_batch]
        hashed[start * vnodes:(start + len(batch)) * vnodes] = np.frombuffer(
            _hash_points(_vnode_tokens(batch, suffixes)), np.uint64)
    order = np.argsort(hashed, kind="stable")
    hashed = hashed[order]
    tied = bool((hashed[1:] == hashed[:-1]).any())
    points = array(POINT_TYPECODE)
    points.frombytes(memoryview(hashed).cast("B"))  # no bytes copy
    del hashed
    np.floor_divide(order, vnodes, out=order)
    owners = np.array(peers, dtype=object)[order]
    del order
    return points, owners.tolist(), tied


# Vnodes hashed per call of ``_hash_points`` by ``_numpy_run``: a
# call holds each digest as a bytes object (about 100 B a token) until
# it has joined them, so a batch costs about 3 MiB whatever the ring's
# size.
_HASH_BATCH = 1 << 15
# Runs of at least this many vnodes are sorted by ``_numpy_run``,
# shorter ones by ``_packed_run``. The rule exists for the import:
# loading numpy costs ~14 MiB resident, which the numpy route's smaller
# transient (8-byte arrays in place of an ~80-bit Python int per vnode)
# pays back only for a large run. A 3k-home churn fleet (171,136
# vnodes) stays below it and never imports numpy; a 10k-home fleet's
# first lookup (633,600) is above it. Nothing sets it.
_NUMPY_MIN_RUN = 1 << 19


def _merge_runs(points: array, owners: List[str],
                extra_points: array, extra_owners: List[str],
                ) -> Tuple[array, List[str]]:
    """Merge two runs, each sorted by ``(point, owner)``, into one.

    The shorter run is spliced into the longer: one Python step per
    entry of the shorter, C-speed slice copies for everything between.
    """
    if len(extra_points) > len(points):
        points, owners, extra_points, extra_owners = (
            extra_points, extra_owners, points, owners)
    if not extra_points:
        return points, owners  # the bulk build: no second copy of it
    merged_points = array(POINT_TYPECODE)
    merged_owners: List[str] = []
    done, n = 0, len(points)
    for point, owner in zip(extra_points, extra_owners):
        at = bisect.bisect_left(points, point, done)
        while at < n and points[at] == point and owners[at] < owner:
            at += 1
        merged_points += points[done:at]
        merged_points.append(point)
        merged_owners += owners[done:at]
        merged_owners.append(owner)
        done = at
    merged_points += points[done:]
    merged_owners += owners[done:]
    return merged_points, merged_owners


def _drop_owners(points: array, owners: List[str], left: AbstractSet[str],
                 ) -> Tuple[array, List[str]]:
    """The arrays without the entries ``left`` owns.

    One Python step per dropped entry, C-speed slice copies for the
    kept runs between them: filtering the points array entry by entry
    would box every kept point into a Python int and back, twice the
    cost of the whole leave.
    """
    kept_points = array(POINT_TYPECODE)
    kept_owners: List[str] = []
    start = 0
    for gone in compress(count(), map(left.__contains__, owners)):
        kept_points += points[start:gone]
        kept_owners += owners[start:gone]
        start = gone + 1
    kept_points += points[start:]
    kept_owners += owners[start:]
    return kept_points, kept_owners


class HashRing:
    """A consistent-hash ring with virtual nodes.

    ``owner(key, live)`` returns the first ring successor of the key's
    hash whose peer is in ``live`` — so membership changes (join,
    leave, quarantine) only move the keyspace arcs that touched the
    changed peer, never a full reshuffle. ``arc_shares`` exposes the
    exact fraction of keyspace each peer owns, which the property tests
    use to pin the <= 2/n remapping bound.

    ``add_peer``/``remove_peer`` are O(1): they only record the change.
    The next lookup applies everything pending in one routine — drop
    the leavers' points in one pass, hash and sort the joiners'
    ``vnodes`` points each (nobody else's), and merge the two sorted
    runs. The first lookup after a fleet-sized sign-up burst is the
    case "every peer is a joiner", i.e. one bulk build (insert-sorting
    10k sign-ups one by one would be quadratic); a later single-peer
    change costs that peer's hashes plus C-speed copies of the arrays.
    The arrays are the ``(point, peer)`` pairs of the current peer set
    in sorted order whatever the history of changes, so they equal a
    fresh bulk build exactly, ties between peers included.

    A bulk build of at least ``_NUMPY_MIN_RUN`` vnodes (a 10k-home
    fleet's first lookup) hashes and sorts in numpy; a smaller run, and
    every single-peer change, stays in the standard library. Both give
    the same arrays, and every ring hash goes through ``_hash_points``.

    Memory: ``_points`` is an ``array('Q')``, 8 bytes per vnode, and
    ``_owners`` a list of the peers' own id strings, 8 bytes per vnode;
    at 10k peers x 64 vnodes the ring is about 10 MiB.
    """

    def __init__(self, vnodes: int = 64) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._points = array(POINT_TYPECODE)  # sorted hash points
        self._owners: List[str] = []          # peer id per point
        self._peers: Set[str] = set()
        # Changes since the arrays were last brought up to date: peers
        # whose points are not in them yet / are still in them.
        self._joined: Set[str] = set()
        self._left: Set[str] = set()

    def __contains__(self, peer_id: str) -> bool:
        return peer_id in self._peers

    def __len__(self) -> int:
        return len(self._peers)

    @property
    def peers(self) -> FrozenSet[str]:
        return frozenset(self._peers)

    def add_peer(self, peer_id: str) -> None:
        if peer_id in self._peers:
            return
        self._peers.add(peer_id)
        if peer_id in self._left:
            self._left.discard(peer_id)    # its points never went away
        else:
            self._joined.add(peer_id)

    def remove_peer(self, peer_id: str) -> None:
        if peer_id not in self._peers:
            return
        self._peers.discard(peer_id)
        if peer_id in self._joined:
            self._joined.discard(peer_id)  # its points never got in
        else:
            self._left.add(peer_id)

    def _apply_pending(self) -> None:
        joined, left = self._joined, self._left
        if not joined and not left:
            return
        points, owners = self._points, self._owners
        if left:
            points, owners = _drop_owners(points, owners, left)
        self._points, self._owners = _merge_runs(
            points, owners, *self._sorted_run(joined))
        joined.clear()
        left.clear()

    def _sorted_run(self, peer_ids: Iterable[str],
                    ) -> Tuple[array, List[str]]:
        """The peers' vnode points as (points, owners), sorted as pairs.

        Only these peers' points are sorted: pairing up a whole ring to
        re-sort it costs several times the merge. A run of at least
        ``_NUMPY_MIN_RUN`` vnodes (a bulk build of a fleet-sized ring)
        is sorted by ``_numpy_run``, a shorter one by ``_packed_run``;
        both give the same arrays. Tied points must fall in owner
        order. Ties between 64-bit points practically never happen, so
        the peers are ranked by id (a second pass) only when some
        points tie.
        """
        peers = list(peer_ids)
        run = (_numpy_run if len(peers) * self.vnodes >= _NUMPY_MIN_RUN
               else _packed_run)
        # The vnode suffixes, built per run: a module-level memo would
        # outlive the ring.
        suffixes = [b"#%d" % v for v in range(self.vnodes)]
        points, owners, tied = run(peers, suffixes)
        if tied:
            points, owners, _ = run(sorted(peers), suffixes)
        return points, owners

    def owner(self, key: str, live: Iterable[str]) -> Optional[str]:
        """First live ring successor of ``key``, or None if none live."""
        self._apply_pending()
        if not self._points:
            return None
        live_set = live if isinstance(live, (set, frozenset)) else set(live)
        if not live_set:
            return None
        point = _hash_points((key.encode(),))[0]
        start = bisect.bisect_right(self._points, point) % len(self._points)
        n = len(self._points)
        for step in range(n):
            candidate = self._owners[(start + step) % n]
            if candidate in live_set:
                return candidate
        return None

    def arc_shares(self, live: Iterable[str]) -> Dict[str, float]:
        """Keyspace fraction owned by each live peer (sums to 1.0)."""
        self._apply_pending()
        live_set = live if isinstance(live, (set, frozenset)) else set(live)
        if not self._points or not live_set:
            return {}
        n = len(self._points)
        # Owner of the arc ending at point i is the first live peer at
        # or after point i on the ring.
        arc_owner: List[Optional[str]] = [None] * n
        # Walk the ring twice backwards so each position inherits the
        # next live owner with one pass.
        next_live: Optional[str] = None
        for i in range(2 * n - 1, -1, -1):
            idx = i % n
            if self._owners[idx] in live_set:
                next_live = self._owners[idx]
            if i < n:
                arc_owner[idx] = next_live
        shares: Dict[str, float] = {}
        for i in range(n):
            width = (self._points[i] - self._points[i - 1]) % RING_SPACE
            if width == 0 and n == 1:
                width = RING_SPACE  # a single point owns the whole ring
            owner = arc_owner[i]
            if owner is not None:
                shares[owner] = shares.get(owner, 0.0) + width / RING_SPACE
        return shares


class CacheStrategy:
    """Where objects live in the fleet, and who serves which request."""

    name = "abstract"

    def __init__(self) -> None:
        self.ring = HashRing()

    # -- membership -----------------------------------------------------

    def register_peer(self, peer_id: str) -> None:
        self.ring.add_peer(peer_id)

    def unregister_peer(self, peer_id: str) -> None:
        self.ring.remove_peer(peer_id)

    # -- placement ------------------------------------------------------

    def should_cache(self, peer_id: str, key: str,
                     live: AbstractSet[str]) -> bool:
        """May ``peer_id`` keep a filled copy of ``key``?"""
        return True

    def serving_peer(self, key: str, live: AbstractSet[str],
                     rng: random.Random,
                     directory: Optional["ContentDirectory"] = None,
                     site: str = "",
                     ordered: Optional[Sequence[str]] = None,
                     ) -> Optional[str]:
        """The peer a client should fetch ``key`` from.

        ``ordered`` optionally passes ``sorted(live)`` computed once by
        the caller — at fleet scale, re-sorting 10k peer ids per object
        dominates wrapper assignment.
        """
        raise NotImplementedError

    def record_request(self, key: str, size: int) -> None:
        """Popularity feedback from the origin's wrapper assignment."""


def _pick(live: AbstractSet[str], rng: random.Random,
          ordered: Optional[Sequence[str]]) -> str:
    return rng.choice(ordered if ordered is not None else sorted(live))


class NaiveStrategy(CacheStrategy):
    """The paper's baseline: every peer caches what it serves, and a
    uniformly random peer serves each request."""

    name = "naive"

    def serving_peer(self, key, live, rng, directory=None, site="",
                     ordered=None):
        if not live:
            return None
        return _pick(live, rng, ordered)


class ShardedStrategy(CacheStrategy):
    """Consistent-hash sharding: one home peer per object.

    Only the home caches; everyone else forwards. The fleet stores one
    copy of each object, so the aggregate cache behaves like a single
    cache the size of the whole fleet.
    """

    name = "sharded"

    def should_cache(self, peer_id, key, live):
        return self.ring.owner(key, live) == peer_id

    def serving_peer(self, key, live, rng, directory=None, site="",
                     ordered=None):
        home = self.ring.owner(key, live)
        if home is not None:
            return home
        return _pick(live, rng, ordered) if live else None


class ReplicateHotStrategy(CacheStrategy):
    """Top-k objects by observed popularity replicate freely; the cold
    tail stays sharded.

    Hot requests prefer a directory-known holder (spreading load over
    however many replicas demand has grown), seeding a new replica on a
    random peer when none exists yet. Every peer may cache a hot object
    it serves, so replica count tracks demand.
    """

    name = "replicate-hot"

    def __init__(self, hot_k: int = 8) -> None:
        super().__init__()
        if hot_k < 0:
            raise ValueError("hot_k must be >= 0")
        self.hot_k = hot_k
        self._counts: Dict[str, int] = {}
        self._hot: Set[str] = set()

    def record_request(self, key, size):
        self._counts[key] = self._counts.get(key, 0) + 1
        if self.hot_k:
            ranked = sorted(self._counts.items(),
                            key=lambda kv: (-kv[1], kv[0]))
            self._hot = {k for k, _ in ranked[: self.hot_k]}

    def should_cache(self, peer_id, key, live):
        if key in self._hot:
            return True
        return self.ring.owner(key, live) == peer_id

    def serving_peer(self, key, live, rng, directory=None, site="",
                     ordered=None):
        if not live:
            return None
        if key in self._hot:
            holders: Sequence[str] = ()
            if directory is not None:
                holders = directory.holders(site, key, live=live)
            if holders:
                return rng.choice(list(holders))
            return _pick(live, rng, ordered)
        home = self.ring.owner(key, live)
        return home if home is not None else _pick(live, rng, ordered)


class StrategySelection(SelectionPolicy):
    """Adapter: drive the origin's wrapper assignment from a strategy.

    Every object of the page is assigned to the strategy's serving
    peer, and the request is recorded as popularity feedback (the
    origin sees every wrapper request, so it is the natural observer).
    """

    name = "strategy"

    def __init__(self, strategy: CacheStrategy,
                 directory: Optional["ContentDirectory"] = None,
                 site: str = "") -> None:
        self.strategy = strategy
        self.directory = directory
        self.site = site

    def assign(self, page, client, peers, network, rng):
        # The origin hands over its cached view, whose id set and
        # sorted ids outlive this call; anything else is wrapped once.
        if not isinstance(peers, UsablePeers):
            peers = UsablePeers(peers)
        live, ordered = peers.ids, peers.ordered
        assignment = {}
        for obj in page.all_objects():
            self.strategy.record_request(obj.name, obj.size)
            peer_id = self.strategy.serving_peer(
                obj.name, live, rng, directory=self.directory,
                site=self.site, ordered=ordered)
            if peer_id is None or peer_id not in live:
                peer_id = rng.choice(ordered)
            assignment[obj.name] = peer_id
        return assignment


STRATEGIES = {
    NaiveStrategy.name: NaiveStrategy,
    ShardedStrategy.name: ShardedStrategy,
    ReplicateHotStrategy.name: ReplicateHotStrategy,
}


def make_strategy(name: str) -> CacheStrategy:
    """Instantiate a strategy by its registry name, with its defaults."""
    try:
        cls = STRATEGIES[name]
    except KeyError:
        raise KeyError(
            f"unknown strategy {name!r}; known: {', '.join(sorted(STRATEGIES))}"
        ) from None
    return cls()
