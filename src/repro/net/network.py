"""The network container: topology graph, routing, paths, datagrams.

Routing is static shortest-path over the link graph, by each link's
``routing_weight`` (propagation delay unless ``connect`` overrides it;
fixed when the link is added). The graph is a plain adjacency dict and
the solver a bidirectional Dijkstra in this module, so routing imports
nothing outside the stdlib. Routes are recomputed lazily when topology
or link state changes. Paths are symmetric (the reverse path traverses
the same links), which matches the paper's setting well enough and keeps
RTT well-defined.

Rate allocation uses the standard flow-level "equal share at each link"
model: a flow's network-limited rate is the minimum over its links of
(capacity / number of registered flows). A full max-min water-filling
solver (:func:`compute_max_min_rates`) is also provided for analyses that
need demand-aware allocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import count
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.metrics.counters import MetricsRegistry
from repro.net.address import Address, AddressPool, Prefix
from repro.net.link import Link, LinkDirection
from repro.net.node import Host, Node, Router
from repro.sim.engine import Simulator

# Path lengths are small integers; dedicated buckets beat log-spaced.
_HOP_BUCKETS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0)


class NetworkError(RuntimeError):
    """Unroutable destination, unknown address, and similar conditions."""


@dataclass(frozen=True)
class Path:
    """A unidirectional path: ordered link directions from source to dest."""

    source: Node
    dest: Node
    directions: Tuple[LinkDirection, ...]

    @property
    def propagation_delay(self) -> float:
        """One-way propagation delay in seconds."""
        return sum(d.link.delay for d in self.directions)

    @property
    def rtt(self) -> float:
        """Round-trip time assuming the symmetric reverse path."""
        return 2 * self.propagation_delay

    @property
    def bottleneck_bandwidth(self) -> float:
        """Minimum direction capacity along the path, bits/sec."""
        return min(d.bandwidth_bps for d in self.directions)

    @property
    def loss_rate(self) -> float:
        """End-to-end loss probability (independent per-hop losses)."""
        survive = 1.0
        for d in self.directions:
            survive *= 1.0 - d.loss_rate
        return 1.0 - survive

    @property
    def hop_count(self) -> int:
        return len(self.directions)

    def register_flow(self, flow: object) -> None:
        for d in self.directions:
            d.register_flow(flow)

    def unregister_flow(self, flow: object) -> None:
        for d in self.directions:
            d.unregister_flow(flow)

    def fair_share_bps(self, flow: object) -> float:
        """Equal-share network-limited rate for ``flow`` on this path.

        ``flow`` is counted even if not registered yet, so callers can
        query before committing.
        """
        share = float("inf")
        for d in self.directions:
            count = d.flow_count + (0 if flow in d.active_flows else 1)
            share = min(share, d.bandwidth_bps / max(count, 1))
        return share

    def carry(self, now: float, nbytes: float) -> None:
        """Account ``nbytes`` crossing every hop of this path."""
        for d in self.directions:
            d.carry(now, nbytes)

    def describe(self) -> str:
        names = [self.source.name] + [d.receiver.name for d in self.directions]
        return " -> ".join(names)


def compose_paths(first: Path, second: Path) -> Path:
    """Concatenate two paths end to end (e.g. client->waypoint->server).

    The joint must match: ``first.dest`` is ``second.source``. Used by
    DCol to build the effective path of a tunneled subflow.
    """
    if first.dest is not second.source:
        raise NetworkError(
            f"paths do not compose: {first.dest.name} != {second.source.name}"
        )
    return Path(source=first.source, dest=second.dest,
                directions=first.directions + second.directions)


class Network:
    """Container for nodes and links with routing and datagram delivery."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.nodes: Dict[str, Node] = {}
        self.links: Dict[str, Link] = {}
        self._by_address: Dict[Address, Node] = {}
        # node name -> {neighbour name -> Link}: the routable links. A
        # parallel link replaces its pair's entry in place, a failed one
        # leaves both directions, and a restored one goes to the end of
        # both endpoints' dicts (insertion order can decide a tie).
        self._adj: Dict[str, Dict[str, Link]] = {}
        self._path_cache: Dict[Tuple[str, str], Path] = {}
        self._routing_epoch = 0
        # Bumped by every Node.power_off/power_on, so a cache of "which
        # hosts are up" (the NoCDN origin's usable-peer view) can tell
        # it is current with one comparison instead of a fleet scan.
        self.power_epoch = 0
        # Optional fast-path route constructor, consulted on cache miss
        # before the generic shortest-path solver. Returning None falls
        # back to Dijkstra, so a provider only needs to cover the
        # topology it understands (see ``hierarchical_path_provider``).
        self.path_provider: Optional[
            Callable[[Node, Node], Optional[Path]]] = None
        self.metrics = MetricsRegistry(namespace="net")
        self._path_hops = self.metrics.histogram(
            "path_hops", help="Hop count of freshly computed routes",
            buckets=_HOP_BUCKETS)
        self._datagram_latency = self.metrics.histogram(
            "datagram_latency_seconds",
            help="Delivery latency of delivered datagrams")
        self._flow_latency = self.metrics.histogram(
            "flow_latency_seconds",
            help="Start-to-completion time of finished flows")
        self._datagrams_sent = self.metrics.counter(
            "datagrams_sent", help="Datagrams handed to the network")
        self._datagrams_dropped = self.metrics.counter(
            "datagrams_dropped", help="Datagrams lost or unroutable")

    # -- construction -----------------------------------------------------

    def add_host(self, name: Optional[str] = None) -> Host:
        host = Host(name or self.sim.ids.next("host"), self)
        self._register_node(host)
        return host

    def add_router(self, name: Optional[str] = None) -> Router:
        router = Router(name or self.sim.ids.next("router"), self)
        self._register_node(router)
        return router

    def _register_node(self, node: Node) -> None:
        if node.name in self.nodes:
            raise NetworkError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        self._adj[node.name] = {}

    def register_address(self, address: Address, node: Node) -> None:
        existing = self._by_address.get(address)
        if existing is not None and existing is not node:
            raise NetworkError(
                f"address {address} already assigned to {existing.name}"
            )
        self._by_address[address] = node

    def node_for(self, address: Address) -> Node:
        node = self._by_address.get(address)
        if node is None:
            raise NetworkError(f"no node has address {address}")
        return node

    def connect(
        self,
        a: Node,
        b: Node,
        bandwidth_bps: float,
        delay: float,
        loss_rate: float = 0.0,
        name: Optional[str] = None,
        bandwidth_ba_bps: Optional[float] = None,
        loss_rate_ba: Optional[float] = None,
        routing_weight: Optional[float] = None,
    ) -> Link:
        """Create a duplex link between ``a`` and ``b``.

        ``routing_weight`` overrides the metric used by shortest-path
        routing (default: propagation delay). Setting it high models
        policy routing that shuns a link even when it is geographically
        short — how real inter-domain routes end up inflated, and why
        detours (SIV-C) can win.
        """
        link = Link(
            name or self.sim.ids.next("link"),
            a, b, bandwidth_bps, delay, loss_rate,
            bandwidth_ba_bps=bandwidth_ba_bps, loss_rate_ba=loss_rate_ba,
        )
        self.links[link.name] = link
        if routing_weight is not None:
            link.routing_weight = routing_weight
        self._add_edge(link)
        return link

    def _add_edge(self, link: Link) -> None:
        self._adj[link.a.name][link.b.name] = link
        self._adj[link.b.name][link.a.name] = link
        self._invalidate_routes()

    def fail_link(self, link: Link) -> None:
        """Failure injection: remove the link from routing until restored."""
        link.fail()
        a, b = link.a.name, link.b.name
        if b in self._adj[a]:
            del self._adj[a][b]
            self._adj[b].pop(a, None)
        self._invalidate_routes()

    def restore_link(self, link: Link) -> None:
        link.restore()
        self._add_edge(link)

    def _invalidate_routes(self) -> None:
        self._path_cache.clear()
        self._routing_epoch += 1

    def invalidate_routes(self) -> None:
        """Drop cached routes and bump the routing epoch.

        Public hook for out-of-band topology mutation (fault injection
        changing link delays in place), so the next ``path_between``
        routes afresh. Running flows do not watch the epoch: a flow
        reads its path's RTT, loss rate and link state live each round
        and asks for a new route only when a link on its path is down.
        """
        self._invalidate_routes()

    @property
    def routing_epoch(self) -> int:
        """Increments whenever routes may have changed (a counter for
        callers that cache routes; nothing in the stack polls it)."""
        return self._routing_epoch

    # -- routing ------------------------------------------------------------

    def path_between(self, source: Node, dest: Node) -> Path:
        """Shortest-delay path; raises :class:`NetworkError` if unroutable."""
        if source is dest:
            raise NetworkError(f"no self-paths: {source.name} -> itself")
        key = (source.name, dest.name)
        cached = self._path_cache.get(key)
        if cached is not None:
            return cached
        if self.path_provider is not None:
            path = self.path_provider(source, dest)
            if path is not None:
                self._path_cache[key] = path
                self._path_hops.observe(float(path.hop_count))
                return path
        hop_names = None
        if source.name in self._adj and dest.name in self._adj:
            hop_names = _least_weight_hops(self._adj, source.name, dest.name)
        if hop_names is None:
            raise NetworkError(f"no route from {source.name} to {dest.name}")
        directions = []
        for a_name, b_name in zip(hop_names, hop_names[1:]):
            link = self._adj[a_name][b_name]
            directions.append(link.direction(self.nodes[a_name]))
        path = Path(source=source, dest=dest, directions=tuple(directions))
        self._path_cache[key] = path
        self._path_hops.observe(float(path.hop_count))
        return path

    def reachable(self, source: Node, dest: Node) -> bool:
        try:
            self.path_between(source, dest)
            return True
        except NetworkError:
            return False

    # -- datagram service ----------------------------------------------------

    def send_datagram(
        self,
        source: Host,
        source_port: int,
        dest: Address,
        dest_port: int,
        payload: object,
        size: int = 512,
        on_dropped: Optional[Callable[[], None]] = None,
    ) -> None:
        """Best-effort message delivery along the routed path.

        Delivery latency = propagation + serialization at the bottleneck.
        Loss is Bernoulli per hop from the direction loss rates. NAT
        *semantics* (who may reach whom) are enforced at the control
        plane by :mod:`repro.nat`, not per-datagram here — see the
        addressing note in DESIGN.md.
        """
        if not source.powered:
            return
        self._datagrams_sent.inc()
        span = self.sim.tracer.start_span("net.datagram", source=source.name,
                                          dest=str(dest), size=size)
        dest_node = self._by_address.get(dest)
        if dest_node is None:
            # Unknown destination: silently dropped, like the real net.
            self._datagrams_dropped.inc()
            span.finish(outcome="unroutable")
            if on_dropped is not None:
                self.sim.call_soon(on_dropped, label="datagram-unroutable")
            return
        try:
            path = self.path_between(source, dest_node)
        except NetworkError:
            self._datagrams_dropped.inc()
            span.finish(outcome="unroutable")
            if on_dropped is not None:
                self.sim.call_soon(on_dropped, label="datagram-unroutable")
            return
        rng = self.sim.rng.stream("net.datagram.loss")
        now = self.sim.now
        for d in path.directions:
            if d.loss_rate > 0 and rng.random() < d.loss_rate:
                d.stats.drops += 1
                self._datagrams_dropped.inc()
                span.finish(outcome="lost")
                if on_dropped is not None:
                    self.sim.call_soon(on_dropped, label="datagram-lost")
                return
        path.carry(now, size)
        latency = path.propagation_delay + size * 8 / path.bottleneck_bandwidth

        def deliver() -> None:
            self._datagram_latency.observe(latency)
            span.finish(outcome="delivered", hops=path.hop_count)
            if isinstance(dest_node, Host):
                dest_node.deliver_datagram(source.address, source_port,
                                           dest_port, payload)

        with self.sim.tracer.activate(span):
            self.sim.schedule(latency, deliver, label="datagram-delivery")

    def note_flow_complete(self, flow: object) -> None:
        """Flow-completion hook: transports report finished transfers here
        so flow latency lands in one network-wide histogram."""
        stats = getattr(flow, "stats", None)
        duration = getattr(stats, "duration", None)
        if duration is not None:
            self._flow_latency.observe(duration)


def _least_weight_hops(adj: Dict[str, Dict[str, Link]], source: str,
                       target: str) -> Optional[List[str]]:
    """Node names along a least-``routing_weight`` route from ``source``
    to ``target`` (distinct nodes), or None if there is none.

    A bidirectional Dijkstra, step for step the one networkx runs for a
    weighted ``shortest_path``: the forward and backward frontiers take
    turns, heap ties go to the earlier push, and the route passes through
    the node that gave the best total when first seen from both sides.
    Over the same adjacency order it returns the same route, ties
    included.
    """
    settled = ({}, {})
    seen = ({source: 0}, {target: 0})
    preds = ({source: None}, {target: None})
    push = count()
    fringe = ([(0, next(push), source)], [(0, next(push), target)])
    best = None
    meet = source
    side = 1
    while fringe[0] and fringe[1]:
        side = 1 - side
        dist, _, v = heappop(fringe[side])
        if v in settled[side]:
            continue
        settled[side][v] = dist
        if v in settled[1 - side]:
            hops = []
            node = meet
            while node is not None:
                hops.append(node)
                node = preds[0][node]
            hops.reverse()
            node = preds[1][meet]
            while node is not None:
                hops.append(node)
                node = preds[1][node]
            return hops
        near, far = seen[side], seen[1 - side]
        for w, link in adj[v].items():
            length = dist + link.routing_weight
            if w not in settled[side] and (w not in near or length < near[w]):
                near[w] = length
                heappush(fringe[side], (length, next(push), w))
                preds[side][w] = v
                if w in far and (best is None or length + far[w] < best):
                    best, meet = length + far[w], w
    return None


def compute_max_min_rates(
    flows: Sequence[object],
    paths: Dict[object, Path],
    demands: Optional[Dict[object, float]] = None,
) -> Dict[object, float]:
    """Demand-aware max-min fair allocation via progressive filling.

    ``flows`` share the links of their ``paths``; a flow never receives
    more than its ``demand`` (infinite if unspecified). Returns rate per
    flow in bits/sec. This is the reference allocator used by analysis
    benches; the runtime fast path is :meth:`Path.fair_share_bps`.
    """
    demands = demands or {}
    remaining: Dict[LinkDirection, float] = {}
    members: Dict[LinkDirection, set] = {}
    for flow in flows:
        for d in paths[flow].directions:
            remaining.setdefault(d, d.bandwidth_bps)
            members.setdefault(d, set()).add(flow)

    allocation: Dict[object, float] = {}
    unfrozen = set(flows)
    # Each iteration freezes at least one flow, so this terminates.
    while unfrozen:
        # Flows capped by demand below their current best share freeze first.
        share_of: Dict[object, float] = {}
        for flow in unfrozen:
            share = min(
                (remaining[d] / len(members[d] & unfrozen)
                 for d in paths[flow].directions if members[d] & unfrozen),
                default=float("inf"),
            )
            share_of[flow] = share
        demand_limited = [
            f for f in unfrozen
            if demands.get(f, float("inf")) <= share_of[f]
        ]
        if demand_limited:
            freeze_set = demand_limited
            rates = {f: demands[f] for f in freeze_set}
        else:
            bottleneck_share = min(share_of.values())
            freeze_set = [f for f in unfrozen if share_of[f] <= bottleneck_share + 1e-9]
            rates = {f: bottleneck_share for f in freeze_set}
        for flow in freeze_set:
            rate = rates[flow]
            allocation[flow] = rate
            for d in paths[flow].directions:
                remaining[d] = max(0.0, remaining[d] - rate)
            unfrozen.discard(flow)
    return allocation
