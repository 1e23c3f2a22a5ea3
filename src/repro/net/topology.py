"""Topology builders: FTTH neighborhoods, wide-area cores, test fixtures.

The flagship builder reproduces the paper's Case Connection Zone setting:
roughly 100 homes, each on a bi-directional 1 Gbps fiber link, aggregated
onto a shared 10 Gbps uplink (SII, "Bottleneck Shifts"). Builders return
plain dataclasses holding the created nodes/links so experiments can
reach in and instrument them.

Note on addressing: every simulated host carries a globally unique
address even "behind NAT" — NAT semantics (reachability, mappings,
traversal) are modeled by :mod:`repro.nat` on top, while the routing
plane stays simple. DESIGN.md records this simplification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.net.address import Address, AddressPool, Prefix
from repro.net.link import Link
from repro.net.network import Network, Path
from repro.net.node import Host, Node, Router
from repro.sim.engine import Simulator
from repro.util.units import gbps, mbps, ms


@dataclass
class Home:
    """One residence: router, devices, optional HPoP host, access link."""

    index: int
    router: Router
    access_link: Link
    devices: List[Host] = field(default_factory=list)
    hpop_host: Optional[Host] = None

    @property
    def all_hosts(self) -> List[Host]:
        hosts = list(self.devices)
        if self.hpop_host is not None:
            hosts.append(self.hpop_host)
        return hosts


@dataclass
class Neighborhood:
    """An FTTH neighborhood: homes aggregated onto a shared uplink."""

    index: int
    aggregation_router: Router
    uplink: Link
    homes: List[Home] = field(default_factory=list)


@dataclass
class ServerSite:
    """A datacenter site: gateway router plus server hosts."""

    name: str
    gateway: Router
    servers: List[Host] = field(default_factory=list)


@dataclass
class City:
    """The full testbed: neighborhoods + core + server sites."""

    network: Network
    core_routers: List[Router]
    neighborhoods: List[Neighborhood]
    server_sites: Dict[str, ServerSite]

    @property
    def sim(self) -> Simulator:
        return self.network.sim

    def all_homes(self) -> List[Home]:
        return [home for nbhd in self.neighborhoods for home in nbhd.homes]

    def all_hpops(self) -> List[Host]:
        return [h.hpop_host for h in self.all_homes() if h.hpop_host is not None]


@dataclass
class AccessProfile:
    """Residential access-link characteristics.

    ``ultrabroadband()`` is the paper's FTTH case; ``legacy_broadband()``
    is the asymmetric cable/DSL baseline the paper contrasts against.
    """

    down_bps: float
    up_bps: float
    delay: float
    loss_rate: float = 0.0

    @classmethod
    def ultrabroadband(cls, rate_bps: float = gbps(1)) -> "AccessProfile":
        return cls(down_bps=rate_bps, up_bps=rate_bps, delay=ms(0.5))

    @classmethod
    def legacy_broadband(cls) -> "AccessProfile":
        return cls(down_bps=mbps(25), up_bps=mbps(5), delay=ms(8))


class TopologyBuilder:
    """Composable builder for city-scale testbeds."""

    LAN_BANDWIDTH = gbps(10)
    LAN_DELAY = ms(0.05)

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.network = Network(sim)
        self._public_pool = AddressPool(Prefix.parse("100.64.0.0/10"))
        self._device_pool = AddressPool(Prefix.parse("10.128.0.0/9"))
        self._core_pool = AddressPool(Prefix.parse("172.16.0.0/12"))
        self._server_pool = AddressPool(Prefix.parse("198.18.0.0/15"))

    # -- building blocks ----------------------------------------------------

    def build_home(
        self,
        neighborhood: Neighborhood,
        index: int,
        access: AccessProfile,
        num_devices: int = 2,
        with_hpop: bool = True,
    ) -> Home:
        """Attach one home to a neighborhood's aggregation router."""
        router = self.network.add_router(
            f"nbhd{neighborhood.index}-home{index}-rtr")
        router.add_interface(self._public_pool.allocate())
        access_link = self.network.connect(
            neighborhood.aggregation_router, router,
            bandwidth_bps=access.down_bps,
            bandwidth_ba_bps=access.up_bps,
            delay=access.delay,
            loss_rate=access.loss_rate,
            name=f"access-n{neighborhood.index}h{index}",
        )
        home = Home(index=index, router=router, access_link=access_link)
        for d in range(num_devices):
            device = self.network.add_host(
                f"nbhd{neighborhood.index}-home{index}-dev{d}")
            device.add_interface(self._device_pool.allocate())
            self.network.connect(router, device, self.LAN_BANDWIDTH,
                                 self.LAN_DELAY,
                                 name=f"lan-n{neighborhood.index}h{index}d{d}")
            home.devices.append(device)
        if with_hpop:
            hpop = self.network.add_host(
                f"nbhd{neighborhood.index}-home{index}-hpop")
            hpop.add_interface(self._device_pool.allocate())
            self.network.connect(router, hpop, self.LAN_BANDWIDTH,
                                 self.LAN_DELAY,
                                 name=f"hpop-n{neighborhood.index}h{index}")
            home.hpop_host = hpop
        neighborhood.homes.append(home)
        return home

    def build_neighborhood(
        self,
        core_attach: Router,
        index: int,
        num_homes: int,
        access: Optional[AccessProfile] = None,
        uplink_bps: float = gbps(10),
        uplink_delay: float = ms(2),
        devices_per_home: int = 2,
        with_hpops: bool = True,
    ) -> Neighborhood:
        """An aggregation router, a shared uplink, and ``num_homes`` homes."""
        access = access or AccessProfile.ultrabroadband()
        agg = self.network.add_router(f"nbhd{index}-agg")
        agg.add_interface(self._core_pool.allocate())
        uplink = self.network.connect(
            agg, core_attach, uplink_bps, uplink_delay,
            name=f"uplink-n{index}")
        neighborhood = Neighborhood(index=index, aggregation_router=agg,
                                    uplink=uplink)
        for h in range(num_homes):
            self.build_home(neighborhood, h, access,
                            num_devices=devices_per_home,
                            with_hpop=with_hpops)
        return neighborhood

    def build_core(self, num_routers: int = 3,
                   bandwidth_bps: float = gbps(100),
                   delay: float = ms(10)) -> List[Router]:
        """A full mesh of core routers."""
        routers = []
        for i in range(num_routers):
            router = self.network.add_router(f"core{i}")
            router.add_interface(self._core_pool.allocate())
            routers.append(router)
        for i, a in enumerate(routers):
            for b in routers[i + 1:]:
                self.network.connect(a, b, bandwidth_bps, delay,
                                     name=f"core-{a.name}-{b.name}")
        return routers

    def build_server_site(
        self,
        core_attach: Router,
        name: str,
        num_servers: int = 1,
        attach_bps: float = gbps(40),
        attach_delay: float = ms(5),
        server_bps: float = gbps(10),
    ) -> ServerSite:
        """A datacenter hanging off a core router."""
        gateway = self.network.add_router(f"{name}-gw")
        gateway.add_interface(self._core_pool.allocate())
        self.network.connect(gateway, core_attach, attach_bps, attach_delay,
                             name=f"transit-{name}")
        site = ServerSite(name=name, gateway=gateway)
        for s in range(num_servers):
            server = self.network.add_host(f"{name}-srv{s}")
            server.add_interface(self._server_pool.allocate())
            self.network.connect(gateway, server, server_bps, ms(0.1),
                                 name=f"dc-{name}-srv{s}")
            site.servers.append(server)
        return site


def build_city(
    sim: Simulator,
    num_neighborhoods: int = 1,
    homes_per_neighborhood: int = 100,
    access: Optional[AccessProfile] = None,
    uplink_bps: float = gbps(10),
    server_sites: Optional[Dict[str, int]] = None,
    devices_per_home: int = 2,
    with_hpops: bool = True,
    core_routers: int = 3,
    core_delay: float = ms(10),
) -> City:
    """Build the paper's reference testbed.

    Defaults reproduce the CCZ shape: one neighborhood of 100 homes, each
    with symmetric 1 Gbps fiber, aggregated onto a 10 Gbps uplink, plus a
    small wide-area core and named server sites (``{'origin': 2}`` means
    a site called "origin" with two servers).
    """
    builder = TopologyBuilder(sim)
    core = builder.build_core(num_routers=core_routers, delay=core_delay)
    neighborhoods = []
    for n in range(num_neighborhoods):
        attach = core[n % len(core)]
        neighborhoods.append(
            builder.build_neighborhood(
                attach, n, homes_per_neighborhood, access=access,
                uplink_bps=uplink_bps, devices_per_home=devices_per_home,
                with_hpops=with_hpops,
            )
        )
    sites = {}
    for i, (name, count) in enumerate((server_sites or {"origin": 1}).items()):
        attach = core[(i + 1) % len(core)]
        sites[name] = builder.build_server_site(attach, name,
                                                num_servers=count)
    return City(network=builder.network, core_routers=core,
                neighborhoods=neighborhoods, server_sites=sites)


def hierarchical_path_provider(city: City):
    """An O(depth) route constructor for :func:`build_city` topologies.

    ``build_city`` makes a strict hierarchy — device/HPoP -> home
    router -> aggregation router -> core mesh -> site gateway ->
    server — so every route is the unique tree walk to the lowest
    common ancestor (plus at most one core-mesh hop). Generic Dijkstra
    re-discovers that walk by visiting most of the graph; on a
    30k-node city that is ~50 ms per distinct pair (Python 3.11, one
    core of a 2-core VM), which would dominate fleet-scale benches.
    This provider composes the same :class:`~repro.net.network.Path`
    arithmetically in microseconds.

    Install with ``city.network.path_provider =
    hierarchical_path_provider(city)``. Any hop over a failed link —
    or an endpoint added outside the builder — returns None, falling
    back to the generic solver so fault injection keeps its exact
    rerouting semantics.
    """
    network = city.network
    adj = network._adj

    def link_between(a: Node, b: Node) -> Link:
        return adj[a.name][b.name]

    # node name -> (parent node, uplink toward the parent); cores have
    # no parent. Built once; build_city topologies are static.
    parent: Dict[str, tuple] = {}
    chain_core: Dict[str, Node] = {}

    def register(child: Node, par: Node, core: Node) -> None:
        parent[child.name] = (par, link_between(par, child))
        chain_core[child.name] = core

    core_names = {r.name for r in city.core_routers}
    mesh: Dict[tuple, Link] = {}
    for i, a in enumerate(city.core_routers):
        chain_core[a.name] = a
        for b in city.core_routers[i + 1:]:
            link = link_between(a, b)
            mesh[(a.name, b.name)] = link
            mesh[(b.name, a.name)] = link
    for nbhd in city.neighborhoods:
        agg = nbhd.aggregation_router
        attach = (nbhd.uplink.b if nbhd.uplink.a is agg else nbhd.uplink.a)
        register(agg, attach, attach)
        for home in nbhd.homes:
            register(home.router, agg, attach)
            for leaf in home.all_hosts:
                register(leaf, home.router, attach)
    for site in city.server_sites.values():
        attach = next(network.nodes[n] for n in adj[site.gateway.name]
                      if n in core_names)
        register(site.gateway, attach, attach)
        for server in site.servers:
            register(server, site.gateway, attach)

    def provider(source: Node, dest: Node) -> Optional[Path]:
        if source.name not in chain_core or dest.name not in chain_core:
            return None
        # Climb from dest to its core, remembering each rung.
        dest_chain: List[Node] = [dest]
        node = dest
        while node.name not in core_names:
            node = parent[node.name][0]
            dest_chain.append(node)
        dest_index = {n.name: i for i, n in enumerate(dest_chain)}
        # Climb from source until we land on the dest chain.
        directions = []
        node = source
        while node.name not in dest_index:
            if node.name in core_names:
                link = mesh.get((node.name, dest_chain[-1].name))
                if link is None:
                    return None
                directions.append(link.direction(node))
                node = dest_chain[-1]
                break
            par, link = parent[node.name]
            directions.append(link.direction(node))
            node = par
        # Descend the dest chain from the meeting point.
        for pos in range(dest_index[node.name] - 1, -1, -1):
            par = dest_chain[pos + 1]
            _, link = parent[dest_chain[pos].name]
            directions.append(link.direction(par))
        for d in directions:
            if not d.link.up:
                return None
        return Path(source=source, dest=dest, directions=tuple(directions))

    return provider


@dataclass
class Dumbbell:
    """Two hosts joined through two routers; the middle link is the
    bottleneck. The canonical transport-test topology."""

    network: Network
    client: Host
    server: Host
    left_router: Router
    right_router: Router
    bottleneck: Link


def build_dumbbell(
    sim: Simulator,
    bottleneck_bps: float = gbps(1),
    bottleneck_delay: float = ms(25),
    edge_bps: float = gbps(10),
    edge_delay: float = ms(0.1),
    loss_rate: float = 0.0,
) -> Dumbbell:
    """client -- left -- (bottleneck) -- right -- server.

    With defaults the end-to-end RTT is ~50.4 ms over a 1 Gbps
    bottleneck: the setting of the paper's SIV-D TCP ramp-up claim.
    """
    network = Network(sim)
    client = network.add_host("client")
    client.add_interface(Address.parse("10.0.0.1"))
    server = network.add_host("server")
    server.add_interface(Address.parse("198.18.0.1"))
    left = network.add_router("left")
    left.add_interface(Address.parse("172.16.0.1"))
    right = network.add_router("right")
    right.add_interface(Address.parse("172.16.0.2"))
    network.connect(client, left, edge_bps, edge_delay, name="edge-left")
    bottleneck = network.connect(left, right, bottleneck_bps, bottleneck_delay,
                                 loss_rate=loss_rate, name="bottleneck")
    network.connect(right, server, edge_bps, edge_delay, name="edge-right")
    return Dumbbell(network=network, client=client, server=server,
                    left_router=left, right_router=right,
                    bottleneck=bottleneck)


@dataclass
class DetourTestbed:
    """Sites with deliberately inflated direct paths for detour studies.

    ``client`` and ``server`` are joined by a "native IP route" whose
    delay/loss reflect real-world path inflation; ``waypoints`` are hosts
    whose two-leg paths can beat the native route — the premise of the
    paper's SIV-C (and the detour-routing literature it cites).
    """

    network: Network
    client: Host
    server: Host
    waypoints: List[Host]
    direct_link: Link


def build_detour_testbed(
    sim: Simulator,
    num_waypoints: int = 3,
    direct_delay: float = ms(60),
    direct_loss: float = 0.02,
    direct_bps: float = mbps(200),
    waypoint_leg_delay: float = ms(18),
    waypoint_leg_loss: float = 0.0,
    waypoint_leg_bps: float = gbps(1),
    vary_waypoints: bool = True,
) -> DetourTestbed:
    """Client/server pair with a poor native route and candidate waypoints.

    With ``vary_waypoints`` each waypoint ``i`` has legs slightly worse
    than waypoint 0 (delay grows 20% per index, and the last waypoint is
    lossy), so "trial and error" exploration has real differences to find.
    """
    network = Network(sim)
    client = network.add_host("dcol-client")
    client.add_interface(Address.parse("100.64.0.1"))
    server = network.add_host("dcol-server")
    server.add_interface(Address.parse("198.18.0.1"))
    client_gw = network.add_router("client-gw")
    client_gw.add_interface(Address.parse("172.16.0.1"))
    server_gw = network.add_router("server-gw")
    server_gw.add_interface(Address.parse("172.16.0.2"))
    network.connect(client, client_gw, gbps(1), ms(0.5), name="client-access")
    network.connect(server, server_gw, gbps(10), ms(0.5), name="server-access")
    direct = network.connect(client_gw, server_gw, direct_bps, direct_delay,
                             loss_rate=direct_loss, name="native-route")
    waypoints = []
    for i in range(num_waypoints):
        wp = network.add_host(f"waypoint{i}")
        wp.add_interface(Address(Address.parse("100.64.1.0").value + i + 1))
        wp_gw = network.add_router(f"waypoint{i}-gw")
        wp_gw.add_interface(Address(Address.parse("172.16.1.0").value + i + 1))
        network.connect(wp, wp_gw, gbps(1), ms(0.5), name=f"wp{i}-access")
        delay_factor = 1.0 + (0.2 * i if vary_waypoints else 0.0)
        loss = waypoint_leg_loss
        if vary_waypoints and num_waypoints > 1 and i == num_waypoints - 1:
            loss = max(loss, 0.03)  # the deliberately bad waypoint
        # High routing weight keeps waypoint legs off the *native* route:
        # they are only usable by explicit relaying at the waypoint host,
        # which is exactly the detour-routing premise.
        network.connect(client_gw, wp_gw, waypoint_leg_bps,
                        waypoint_leg_delay * delay_factor, loss_rate=loss,
                        name=f"leg-client-wp{i}", routing_weight=10.0)
        network.connect(wp_gw, server_gw, waypoint_leg_bps,
                        waypoint_leg_delay * delay_factor, loss_rate=loss,
                        name=f"leg-wp{i}-server", routing_weight=10.0)
        waypoints.append(wp)
    return DetourTestbed(network=network, client=client, server=server,
                         waypoints=waypoints, direct_link=direct)
