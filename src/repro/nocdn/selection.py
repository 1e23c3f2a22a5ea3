"""Peer-selection policies for NoCDN (paper SIV-B "Peer Selection").

"Without a traditional CDN to perform this operation, how should a
content provider select a peer for the client to use?" — the paper
names reachability, bandwidth, loss, delay, and trustworthiness as the
inputs. Each policy here maps (client, candidate peers) to an
assignment of page objects to peers; the benchmark sweeps them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.http.content import WebPage
from repro.net.network import Network, NetworkError
from repro.net.node import Host
from repro.nocdn.wrapper import ChunkAssignment

if TYPE_CHECKING:  # pragma: no cover
    from repro.nocdn.origin import PeerInfo


class UsablePeers(tuple):
    """The usable peers of one membership state, in registration order.

    This is the ``peers`` sequence the origin hands to a policy. It is
    immutable and the origin reuses it for every wrapper until
    membership changes (see ``ContentProvider.usable_peers``), so the
    id set, the sorted ids and the trust ranking are each derived at
    most once per membership state, on first use — never per wrapper.
    """

    @cached_property
    def ids(self) -> FrozenSet[str]:
        return frozenset(info.peer_id for info in self)

    @cached_property
    def ordered(self) -> Tuple[str, ...]:
        """The ids sorted: the population seeded random picks draw from."""
        return tuple(sorted(self.ids))

    @cached_property
    def ranking(self) -> Tuple[str, ...]:
        """The ids, most trusted first (ties by id)."""
        return tuple(info.peer_id for info in sorted(
            self, key=lambda info: (-info.trust, info.peer_id)))


class SelectionPolicy:
    """Maps page objects to peers for one client request."""

    name = "abstract"

    def assign(
        self,
        page: WebPage,
        client: Host,
        peers: Sequence["PeerInfo"],
        network: Network,
        rng: random.Random,
    ) -> Dict[str, str]:
        """object name -> peer id. ``peers`` is non-empty and alive."""
        raise NotImplementedError


class RandomSelection(SelectionPolicy):
    """Uniform random peer per object — also the collusion mitigation
    ("including some randomness in the client-to-peer mappings")."""

    name = "random"

    def assign(self, page, client, peers, network, rng):
        return {obj.name: rng.choice(list(peers)).peer_id
                for obj in page.all_objects()}


class SingleRandomPeer(SelectionPolicy):
    """One random peer serves the whole page (fewest connections)."""

    name = "single"

    def assign(self, page, client, peers, network, rng):
        chosen = rng.choice(list(peers))
        return {obj.name: chosen.peer_id for obj in page.all_objects()}


class ProximitySelection(SelectionPolicy):
    """Lowest-RTT peer from the client, all objects to it.

    Uses the same signal a traditional CDN's request router would.
    """

    name = "proximity"

    def assign(self, page, client, peers, network, rng):
        def rtt_to(info) -> float:
            try:
                return network.path_between(client, info.host).rtt
            except NetworkError:
                return float("inf")

        best = min(peers, key=rtt_to)
        return {obj.name: best.peer_id for obj in page.all_objects()}


class LoadAwareSelection(SelectionPolicy):
    """Spread objects over the least-loaded peers (origin tracks
    outstanding assignments as its load signal)."""

    name = "load-aware"

    def assign(self, page, client, peers, network, rng):
        ordered = sorted(peers, key=lambda info: (info.outstanding_bytes,
                                                  info.peer_id))
        assignment = {}
        for i, obj in enumerate(page.all_objects()):
            info = ordered[i % len(ordered)]
            assignment[obj.name] = info.peer_id
            info.outstanding_bytes += obj.size
        return assignment


class DisjointSelection(SelectionPolicy):
    """Every object of a page from a *different* peer where possible.

    Paper SIV-B, "Leveraging Redundancy": "the content provider could
    dictate that each object within a webpage come from a different
    source ... lower[ing] the chance that one problematic peer will
    have a large overall impact on the client." With fewer peers than
    objects, peers repeat as evenly as possible.
    """

    name = "disjoint"

    def assign(self, page, client, peers, network, rng):
        peer_list = list(peers)
        rng.shuffle(peer_list)
        return {
            obj.name: peer_list[i % len(peer_list)].peer_id
            for i, obj in enumerate(page.all_objects())
        }


class AffinitySelection(SelectionPolicy):
    """Rendezvous-hash each object onto a small peer set, pick randomly
    within it.

    Affinity gives peer caches high hit rates (each object lives on
    ``spread`` peers instead of everywhere), while the within-set random
    pick retains the unpredictable client-to-peer mapping the paper
    wants for collusion mitigation.
    """

    name = "affinity"

    def __init__(self, spread: int = 2) -> None:
        if spread < 1:
            raise ValueError("spread must be >= 1")
        self.spread = spread

    def assign(self, page, client, peers, network, rng):
        import hashlib

        peer_list = list(peers)
        assignment = {}
        for obj in page.all_objects():
            ranked = sorted(
                peer_list,
                key=lambda info: hashlib.sha256(
                    f"{info.peer_id}|{obj.name}".encode()).hexdigest())
            candidates = ranked[: min(self.spread, len(ranked))]
            assignment[obj.name] = rng.choice(candidates).peer_id
        return assignment


class TrustWeightedSelection(SelectionPolicy):
    """Random selection biased by accumulated trust scores.

    Peers caught tampering or inflating see their weight collapse, so
    they organically stop receiving assignments before outright expulsion.
    """

    name = "trust-weighted"

    def __init__(self, floor: float = 0.01) -> None:
        self.floor = floor

    def assign(self, page, client, peers, network, rng):
        peer_list = list(peers)
        weights = [max(self.floor, info.trust) for info in peer_list]
        return {
            obj.name: rng.choices(peer_list, weights=weights, k=1)[0].peer_id
            for obj in page.all_objects()
        }


def chunked_assignment(
    page: WebPage,
    peers: Sequence["PeerInfo"],
    rng: random.Random,
    chunk_size: int,
    min_object_size: Optional[int] = None,
) -> List[ChunkAssignment]:
    """Split large objects into ranges served by disparate peers.

    Paper: "clients could download objects in chunks (e.g., using HTTP
    range requests) from disparate peers ... both spread the load and
    lower the chance that one problematic peer will have a large overall
    impact". Objects smaller than ``min_object_size`` stay whole (one
    chunk covering the full object).
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    threshold = min_object_size if min_object_size is not None else chunk_size
    peer_list = list(peers)
    chunks: List[ChunkAssignment] = []
    for obj in page.all_objects():
        if obj.size <= threshold:
            chunks.append(ChunkAssignment(
                object_name=obj.name, peer_id=rng.choice(peer_list).peer_id,
                start=0, end=obj.size))
            continue
        start = 0
        # Rotate through a shuffled peer order so consecutive chunks of
        # one object land on different peers.
        order = peer_list[:]
        rng.shuffle(order)
        i = 0
        while start < obj.size:
            end = min(start + chunk_size, obj.size)
            chunks.append(ChunkAssignment(
                object_name=obj.name, peer_id=order[i % len(order)].peer_id,
                start=start, end=end))
            start = end
            i += 1
    return chunks
