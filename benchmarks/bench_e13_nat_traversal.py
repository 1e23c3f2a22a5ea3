"""E13 — HPoP reachability across NAT configurations (paper SIII).

Claims reproduced: the paper's traversal ladder — UPnP for home NATs,
STUN hole punching behind CGN where NAT behaviour allows, TURN
relaying "with limited functionality" otherwise. We build every NAT
configuration, run the ladder, and quantify the relay's performance
penalty (the "limited functionality").
"""

from repro.hpop.core import HPOP_PORT, Household, Hpop, User
from repro.http.client import HttpClient
from repro.http.messages import HttpRequest, ok
from repro.metrics.report import ExperimentReport
from repro.nat.devices import NatChain, NatDevice, NatType, make_cgn
from repro.nat.traversal import (
    ReachabilityManager,
    ReachabilityMethod,
    StunServer,
    TurnServer,
)
from repro.net.address import Address
from repro.net.topology import build_city
from repro.sim.engine import Simulator
from repro.util.units import mib

CONFIGS = [
    ("public address", NatChain()),
    ("home NAT + UPnP",
     NatChain([NatDevice("nat", Address.parse("100.64.1.1"))])),
    ("home NAT, no UPnP (cone)",
     NatChain([NatDevice("nat", Address.parse("100.64.1.2"),
                         nat_type=NatType.RESTRICTED_CONE,
                         upnp_enabled=False)])),
    ("CGN (port-restricted)",
     NatChain([NatDevice("nat", Address.parse("100.64.1.3")),
               make_cgn("cgn", Address.parse("100.64.9.1"),
                        nat_type=NatType.PORT_RESTRICTED)])),
    ("CGN (symmetric)",
     NatChain([NatDevice("nat", Address.parse("100.64.1.4")),
               make_cgn("cgn", Address.parse("100.64.9.2"))])),
]

EXPECTED_METHOD = {
    "public address": ReachabilityMethod.PUBLIC,
    "home NAT + UPnP": ReachabilityMethod.UPNP,
    "home NAT, no UPnP (cone)": ReachabilityMethod.HOLE_PUNCH,
    "CGN (port-restricted)": ReachabilityMethod.HOLE_PUNCH,
    "CGN (symmetric)": ReachabilityMethod.RELAY,
}


def build_world():
    sim = Simulator(seed=13)
    city = build_city(sim, homes_per_neighborhood=6,
                      server_sites={"infra": 1})
    infra = city.server_sites["infra"].servers[0]
    stun = StunServer(city.network, infra)
    turn = TurnServer(city.network, infra)
    manager = ReachabilityManager(city.network, stun, turn)
    return sim, city, manager


def fetch_time(sim, city, manager, hpop, client):
    """Time for a 5 MiB fetch from the HPoP over the manager's data path."""
    path = manager.data_path(client, hpop.host)
    from repro.transport.tcp import TcpFlow
    done = []
    TcpFlow(sim, path, mib(5), on_complete=lambda f: done.append(sim.now))
    start = sim.now
    sim.run()
    return done[0] - start, path.rtt


def experiment():
    report = ExperimentReport(
        "E13", "Reachability ladder: NAT configuration -> traversal method",
        columns=("configuration", "method", "setup time (ms)",
                 "data-path RTT (ms)", "5 MiB fetch (s)"))
    sim, city, manager = build_world()

    outcomes = {}
    for i, (label, chain) in enumerate(CONFIGS):
        home = city.neighborhoods[0].homes[i]
        hpop = Hpop(home.hpop_host, city.network,
                    Household(name=f"h{i}", users=[User("u", "p")]),
                    reachability=manager)
        hpop.http.route("/blob", lambda req: ok(body_size=1000))
        manager.register_chain(home.hpop_host, chain)
        reports = []
        hpop.start(on_reachable=reports.append)
        sim.run()
        outcome = reports[0]
        client = city.neighborhoods[0].homes[5].devices[0]
        manager.register_chain(client, NatChain())  # public-ish client
        duration, rtt = fetch_time(sim, city, manager, hpop, client)
        outcomes[label] = (outcome, duration, rtt)
        report.add_row(label, outcome.method.value,
                       outcome.setup_time * 1e3, rtt * 1e3, duration)

    for label, _chain in CONFIGS:
        outcome, _d, _r = outcomes[label]
        report.check(
            f"ladder picks the paper's method for: {label}",
            EXPECTED_METHOD[label].value, outcome.method.value,
            outcome.method is EXPECTED_METHOD[label])

    direct_rtt = outcomes["home NAT + UPnP"][2]
    relay_rtt = outcomes["CGN (symmetric)"][2]
    direct_time = outcomes["home NAT + UPnP"][1]
    relay_time = outcomes["CGN (symmetric)"][1]
    report.check(
        "TURN relaying is the 'limited functionality' fallback",
        "relayed RTT and transfer time exceed the direct path's",
        f"RTT {relay_rtt * 1e3:.1f} vs {direct_rtt * 1e3:.1f} ms; "
        f"fetch {relay_time:.2f} vs {direct_time:.2f} s",
        relay_rtt > direct_rtt and relay_time > direct_time)
    report.check(
        "every configuration ends up reachable",
        "no UNREACHABLE outcomes with STUN+TURN deployed",
        str([o.method.value for o, _d, _r in outcomes.values()]),
        all(o.reachable for o, _d, _r in outcomes.values()))
    report.check(
        "traversal setup costs real time only when servers are consulted",
        "UPnP setup ~0; STUN/TURN setups > 0",
        f"upnp {outcomes['home NAT + UPnP'][0].setup_time * 1e3:.2f} ms, "
        f"stun {outcomes['CGN (port-restricted)'][0].setup_time * 1e3:.2f} ms, "
        f"turn {outcomes['CGN (symmetric)'][0].setup_time * 1e3:.2f} ms",
        outcomes["home NAT + UPnP"][0].setup_time == 0
        and outcomes["CGN (port-restricted)"][0].setup_time > 0
        and outcomes["CGN (symmetric)"][0].setup_time
        > outcomes["CGN (port-restricted)"][0].setup_time)
    return report
