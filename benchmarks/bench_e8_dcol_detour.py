"""E8 — DCol detour benefit (paper Fig. 3 + SIV-C).

Claims reproduced: detour paths via well-connected waypoints beat
inflated native routes on latency, loss, and throughput ("less packet
loss, lower latency, and higher bandwidth"); most of the benefit comes
from a single waypoint; multiple subflows additionally aggregate
bandwidth.
"""

from repro.dcol.collective import DetourCollective, WaypointService
from repro.dcol.manager import DetourManager
from repro.hpop.core import Household, Hpop, User
from repro.metrics.report import ExperimentReport
from repro.net.topology import build_detour_testbed
from repro.sim.engine import Simulator
from repro.util.units import mib

TRANSFER = mib(25)


def build(seed=8, **bed_kwargs):
    sim = Simulator(seed=seed)
    bed = build_detour_testbed(sim, num_waypoints=3, **bed_kwargs)
    collective = DetourCollective()
    services = []
    for wp in bed.waypoints:
        hpop = Hpop(wp, bed.network,
                    Household(name=wp.name, users=[User("u", "p")]))
        service = hpop.install(WaypointService())
        hpop.start()
        collective.join(service)
        services.append(service)
    manager = DetourManager(bed.client, bed.network, collective)
    return sim, bed, services, manager


def run_transfer(configure):
    """Run one transfer; ``configure(transfer, services)`` adds detours."""
    sim, bed, services, manager = build()
    done = []
    transfer = manager.start_transfer(bed.server, TRANSFER,
                                      on_complete=lambda t: done.append(sim.now))
    configure(transfer, services)
    sim.run()
    assert done, "transfer did not complete"
    return done[0], transfer, bed


def path_metrics(bed, via=None):
    net = bed.network
    if via is None:
        path = net.path_between(bed.client, bed.server)
    else:
        from repro.net.network import compose_paths
        path = compose_paths(net.path_between(bed.client, via),
                             net.path_between(via, bed.server))
    return path.rtt * 1e3, path.loss_rate


def experiment():
    report = ExperimentReport(
        "E8", "Detour routing: native path vs single/multiple waypoints",
        columns=("configuration", "path RTT (ms)", "path loss",
                 "25 MiB completion (s)", "speedup vs native"))

    t_native, _tr, bed = run_transfer(lambda t, s: None)
    rtt_native, loss_native = path_metrics(bed)
    report.add_row("native IP route", rtt_native, loss_native, t_native, 1.0)

    times = {}
    for i in range(3):
        t_i, _tr, bed_i = run_transfer(
            lambda t, s, i=i: t.add_detour(s[i]))
        rtt_i, loss_i = path_metrics(bed_i, via=bed_i.waypoints[i])
        times[i] = t_i
        report.add_row(f"detour via waypoint {i}", rtt_i, loss_i, t_i,
                       t_native / t_i)

    t_multi, transfer_multi, _bed = run_transfer(
        lambda t, s: [t.add_detour(s[0]), t.add_detour(s[1])])
    report.add_row("native + 2 detours (MPTCP aggregate)", float("nan"),
                   float("nan"), t_multi, t_native / t_multi)

    best_single = min(times.values())
    rtt_best, loss_best = path_metrics(bed, via=bed.waypoints[0])
    report.check(
        "a good waypoint beats the native route outright",
        "best single detour >= 1.5x faster than native",
        f"{t_native:.2f} s -> {best_single:.2f} s "
        f"({t_native / best_single:.1f}x)",
        best_single * 1.5 < t_native)
    report.check(
        "detour paths have lower latency and loss",
        "waypoint-0 path RTT and loss both below native",
        f"RTT {rtt_best:.0f} vs {rtt_native:.0f} ms, "
        f"loss {loss_best:.3f} vs {loss_native:.3f}",
        rtt_best < rtt_native and loss_best < loss_native)
    report.check(
        "one waypoint captures most of the benefit (prior-work claim)",
        "best single detour achieves >= 70% of the multi-path speedup",
        f"single {t_native / best_single:.2f}x vs multi "
        f"{t_native / t_multi:.2f}x",
        (t_native / best_single) >= 0.7 * (t_native / t_multi))
    report.check(
        "parallel subflows aggregate bandwidth",
        "multi-path completion <= best single detour",
        f"{t_multi:.2f} s vs {best_single:.2f} s",
        t_multi <= best_single * 1.05)
    report.check(
        "waypoint quality matters (trial-and-error has signal)",
        "waypoint 0 (clean) faster than waypoint 2 (lossy legs)",
        f"{times[0]:.2f} s vs {times[2]:.2f} s", times[0] < times[2])
    report.note(
        "Native route: 60 ms policy-inflated, 2% loss, 200 Mbps. "
        "Waypoint legs: ~18-26 ms, clean (waypoint 2 lossy), 1 Gbps — "
        "the triangle-inequality violations the detour literature measures.")
    return report
