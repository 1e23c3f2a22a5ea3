"""E10 — Client-side steering of server scheduling (paper SIV-C).

Claims reproduced:

- "a custom client's scheduler can reduce server's use of a detour by
  delaying subflow-level acknowledgments" — we sweep the injected ACK
  delay and watch the detour's share of delivered bytes fall,
- detours can be withdrawn mid-connection "while transparently
  recovering the affected packets over the remaining subflows" — we
  withdraw at several points and verify byte-exact completion.
"""

from repro.dcol.collective import DetourCollective, WaypointService
from repro.dcol.manager import DetourManager
from repro.hpop.core import Household, Hpop, User
from repro.metrics.report import ExperimentReport
from repro.net.topology import build_detour_testbed
from repro.sim.engine import Simulator
from repro.util.units import mib, ms


def build(seed=10):
    sim = Simulator(seed=seed)
    bed = build_detour_testbed(sim, num_waypoints=1, direct_loss=0.0)
    collective = DetourCollective()
    wp = bed.waypoints[0]
    hpop = Hpop(wp, bed.network, Household(name=wp.name, users=[User("u", "p")]))
    service = hpop.install(WaypointService())
    hpop.start()
    collective.join(service)
    return sim, bed, service, DetourManager(bed.client, bed.network, collective)


def detour_share_with_ack_delay(delay):
    sim, bed, service, manager = build()
    transfer = manager.start_transfer(bed.server, mib(30))
    handles = []
    transfer.add_detour(service, on_ready=handles.append, ack_delay=delay)
    sim.run()
    assert transfer.done
    return transfer.connection.share_of(handles[0].subflow)


def withdraw_at(fraction_time):
    """Withdraw the detour partway; return (completed, delivered, requested)."""
    sim, bed, service, manager = build()
    done = []
    transfer = manager.start_transfer(bed.server, mib(30),
                                      on_complete=lambda t: done.append(1))
    handles = []
    transfer.add_detour(service, on_ready=handles.append)

    def withdraw():
        if handles and not transfer.done and handles[0] in transfer.detours:
            transfer.withdraw_detour(handles[0])

    sim.schedule(fraction_time, withdraw, weak=True)
    sim.run()
    return bool(done), transfer.connection.stats.bytes_delivered, mib(30)


def experiment():
    report = ExperimentReport(
        "E10", "ACK-delay steering and transparent detour withdrawal",
        columns=("injected ACK delay (ms)", "detour share of bytes"))
    shares = {}
    for delay_ms in (0, 50, 150, 400):
        share = detour_share_with_ack_delay(ms(delay_ms))
        shares[delay_ms] = share
        report.add_row(delay_ms, share)

    report.check(
        "delayed subflow ACKs reduce the server's use of the detour",
        "detour share decreases monotonically with injected delay",
        " -> ".join(f"{shares[d]:.2f}" for d in (0, 50, 150, 400)),
        shares[0] > shares[50] > shares[150] > shares[400])
    report.check(
        "steering is substantial",
        "400 ms delay cuts the detour share by > 50%",
        f"{shares[0]:.2f} -> {shares[400]:.2f}",
        shares[400] < 0.5 * shares[0])

    recoveries = []
    for t in (0.3, 0.8, 1.5):
        completed, delivered, requested = withdraw_at(t)
        recoveries.append((t, completed, delivered / requested))
    for t, completed, fraction in recoveries:
        report.add_row(f"withdraw at {t:.1f}s", f"completed={completed}, "
                       f"delivered={fraction:.4f}")
    report.check(
        "withdrawal is transparent: no data is lost",
        "every transfer completes with 100% of bytes delivered",
        str([(t, f"{frac:.4f}") for t, _c, frac in recoveries]),
        all(completed and frac >= 0.9999
            for _t, completed, frac in recoveries))
    return report
