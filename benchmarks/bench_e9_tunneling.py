"""E9 — VPN vs NAT tunneling tradeoffs and the /26 address plan (SIV-C).

Claims reproduced:

- "VPN adds 36 bytes of per-packet overhead ... while NAT adds no extra
  bytes" — measured as a goodput ratio on a bulk transfer,
- "Once a client establishes a VPN tunnel ... reused for any TCP
  connection to any server, without additional setup. The NAT mechanism
  requires signaling with the waypoint for every new server" — measured
  as cumulative setup latency vs number of distinct destinations,
- "assigning each waypoint a /26 from the 10.0.0.0/8 block ... allows
  for each of 256K non-conflicting waypoints to serve 64 clients
  simultaneously" — checked against the allocator arithmetic.
"""

from repro.dcol.collective import DetourCollective, WaypointService
from repro.dcol.manager import DetourManager
from repro.dcol.tunnels import (
    NAT_OVERHEAD_BYTES,
    VPN_OVERHEAD_BYTES,
    TunnelFactory,
)
from repro.hpop.core import Household, Hpop, User
from repro.metrics.report import ExperimentReport
from repro.net.address import Address
from repro.net.topology import build_detour_testbed
from repro.sim.engine import Simulator
from repro.transport.tcp import MSS
from repro.util.units import mib


def build(seed=9):
    sim = Simulator(seed=seed)
    bed = build_detour_testbed(sim, num_waypoints=1, direct_loss=0.0)
    collective = DetourCollective()
    wp = bed.waypoints[0]
    hpop = Hpop(wp, bed.network, Household(name=wp.name, users=[User("u", "p")]))
    service = hpop.install(WaypointService())
    hpop.start()
    collective.join(service)
    manager = DetourManager(bed.client, bed.network, collective)
    return sim, bed, service, manager, collective


def detour_only_time(mechanism):
    """Transfer time with all traffic steered onto one detour subflow."""
    sim, bed, service, manager, _c = build()
    done = []
    transfer = manager.start_transfer(bed.server, mib(20), tls=False,
                                      on_complete=lambda t: done.append(sim.now))
    # Throttle the direct subflow hard so the detour carries the load,
    # isolating the tunnel-overhead effect.
    def throttle():
        if transfer.direct_subflow is not None:
            transfer.direct_subflow.set_ack_delay(5.0)
    sim.schedule(0.05, throttle, weak=True)
    transfer.add_detour(service, mechanism=mechanism)
    sim.run()
    return done[0]


def setup_latency(mechanism, num_destinations):
    """Total tunnel-setup time to reach ``num_destinations`` servers."""
    sim, bed, service, _m, _c = build()
    factory = TunnelFactory(bed.network)
    total = {"t": 0.0}
    pending = {"n": 0}

    def open_one(dest_port):
        pending["n"] += 1

        def ready(tunnel):
            total["t"] += tunnel.setup_time
            pending["n"] -= 1

        if mechanism == "vpn":
            factory.open_vpn(service.vpn, bed.client, ready)
        else:
            factory.open_nat(service.nat, bed.client, bed.server.address,
                             dest_port, ready)

    if mechanism == "vpn":
        open_one(443)  # one join covers every destination thereafter
    else:
        for i in range(num_destinations):
            open_one(1000 + i)  # one negotiation per destination
    sim.run()
    return total["t"]


def experiment():
    report = ExperimentReport(
        "E9", "DCol tunneling: VPN vs NAT overhead and setup; /26 plan",
        columns=("metric", "VPN", "NAT"))

    t_vpn = detour_only_time("vpn")
    t_nat = detour_only_time("nat")
    report.add_row("20 MiB detour transfer (s)", t_vpn, t_nat)
    report.add_row("per-packet overhead (bytes)", VPN_OVERHEAD_BYTES,
                   NAT_OVERHEAD_BYTES)

    setup = {}
    for n in (1, 5, 10):
        vpn_cost = setup_latency("vpn", n)
        nat_cost = setup_latency("nat", n)
        setup[n] = (vpn_cost, nat_cost)
        report.add_row(f"setup latency, {n} destination(s) (s)",
                       vpn_cost, nat_cost)

    expected_efficiency = MSS / (MSS + VPN_OVERHEAD_BYTES)
    measured_ratio = t_nat / t_vpn
    report.check(
        "VPN encapsulation costs ~2.4% goodput (36 B per 1460 B segment)",
        f"NAT/VPN completion ratio ~ {expected_efficiency:.4f} "
        "(NAT never slower)",
        f"{measured_ratio:.4f}",
        expected_efficiency - 0.03 < measured_ratio <= 1.0)
    report.check(
        "NAT needs per-destination signaling, VPN does not",
        "VPN setup flat in destinations; NAT grows linearly",
        f"VPN {setup[1][0]:.3f}->{setup[10][0]:.3f} s, "
        f"NAT {setup[1][1]:.3f}->{setup[10][1]:.3f} s",
        setup[10][0] == setup[1][0]
        and setup[10][1] > 5 * setup[1][1])
    report.check(
        "one destination: NAT is the cheaper setup",
        "NAT one round trip vs VPN two",
        f"{setup[1][1]:.3f} s vs {setup[1][0]:.3f} s",
        setup[1][1] < setup[1][0])

    collective = DetourCollective()
    report.add_row("address-plan waypoint capacity",
                   collective.capacity, collective.capacity)
    report.check(
        "the 10.0.0.0/8 -> /26 plan supports the paper's numbers",
        "256K waypoints x 64 addresses each",
        f"{collective.capacity} waypoints x 64",
        collective.capacity == 262_144)
    return report
