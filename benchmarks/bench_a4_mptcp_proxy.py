"""A4 (ablation) — DCol via an MPTCP proxy near a non-MPTCP server (SIV-C).

"This approach allows MPTCP-adopting clients to benefit from MPTCP even
when interacting with a non-MPTCP servers, by leveraging an MPTCP proxy
in server's vicinity. Our approach can be used in this deployment
scenario as well."

We compare: native MPTCP server vs MPTCP proxy vs no detours at all,
and measure the proxy's added cost (its local leg).
"""

from repro.dcol.collective import DetourCollective, WaypointService
from repro.dcol.manager import DetourManager
from repro.dcol.proxy import MptcpProxy
from repro.hpop.core import Household, Hpop, User
from repro.metrics.report import ExperimentReport
from repro.net.address import Address
from repro.net.topology import build_detour_testbed
from repro.sim.engine import Simulator
from repro.util.units import gbps, mib, ms

TRANSFER = mib(20)


def build(seed):
    sim = Simulator(seed=seed)
    bed = build_detour_testbed(sim, num_waypoints=1)
    proxy_host = bed.network.add_host("mptcp-proxy")
    proxy_host.add_interface(Address.parse("198.18.0.9"))
    bed.network.connect(proxy_host, bed.network.nodes["server-gw"],
                        gbps(10), ms(0.5), name="proxy-leg")
    proxy = MptcpProxy(host=proxy_host, network=bed.network)
    collective = DetourCollective()
    wp = bed.waypoints[0]
    hpop = Hpop(wp, bed.network, Household(name=wp.name,
                                           users=[User("u", "p")]))
    service = hpop.install(WaypointService())
    hpop.start()
    collective.join(service)
    manager = DetourManager(bed.client, bed.network, collective)
    return sim, bed, proxy, service, manager


def run(mode, seed):
    """mode: 'direct' | 'native-mptcp' | 'proxy'."""
    sim, bed, proxy, service, manager = build(seed)
    done = []
    transfer = manager.start_transfer(
        bed.server, TRANSFER,
        proxy=proxy if mode == "proxy" else None,
        on_complete=lambda t: done.append(sim.now))
    if mode != "direct":
        transfer.add_detour(service)
    sim.run()
    assert done
    return done[0]


def experiment():
    report = ExperimentReport(
        "A4", "DCol deployment: native MPTCP server vs in-network proxy",
        columns=("deployment", "20 MiB completion (s)", "speedup vs direct"))
    t_direct = run("direct", 400)
    t_native = run("native-mptcp", 401)
    t_proxy = run("proxy", 402)
    report.add_row("direct path only (no detours)", t_direct, 1.0)
    report.add_row("detour, server speaks MPTCP", t_native,
                   t_direct / t_native)
    report.add_row("detour via MPTCP proxy (plain-TCP server)", t_proxy,
                   t_direct / t_proxy)

    report.check(
        "the proxy deployment preserves the detour benefit",
        "proxy-mode completion within 25% of native MPTCP",
        f"{t_proxy:.2f} s vs {t_native:.2f} s",
        t_proxy < t_native * 1.25)
    report.check(
        "both detour deployments beat the direct path",
        "speedup > 2x in both modes",
        f"native {t_direct / t_native:.1f}x, proxy {t_direct / t_proxy:.1f}x",
        t_native * 2 < t_direct and t_proxy * 2 < t_direct)
    report.check(
        "the proxy's cost is its short local leg",
        "proxy mode slower than native by less than 25%",
        f"+{(t_proxy / t_native - 1) * 100:.1f}%",
        t_proxy >= t_native * 0.999)
    report.note(
        "Proxy sits 0.5 ms from the server on a 10 Gbps leg; the penalty "
        "scales with that leg, which is why the IETF design wants proxies "
        "'in the server's vicinity'.")
    return report
