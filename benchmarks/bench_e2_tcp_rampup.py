"""E2 — TCP ramp-up on an ultrabroadband path (paper SIV-D).

Claim reproduced: "over a 1 Gbps network path with a 50 msec RTT a TCP
connection will require 10 RTTs and over 14 MB of data before utilizing
the available capacity. Most transfers carry nowhere near enough data to
achieve these speeds." We measure the slow-start trajectory directly
and sweep transfer sizes to show the achieved-goodput cliff.
"""

from repro.metrics.report import ExperimentReport
from repro.net.topology import build_dumbbell
from repro.sim.engine import Simulator
from repro.transport.tcp import TcpFlow
from repro.util.units import gbps, kib, mib


def measure_rampup():
    sim = Simulator(seed=2)
    bell = build_dumbbell(sim)  # 1 Gbps bottleneck, ~50.4 ms RTT
    path = bell.network.path_between(bell.server, bell.client)
    done = []
    TcpFlow(sim, path, mib(200), on_complete=done.append)
    sim.run()
    flow = done[0]
    bdp_bytes = gbps(1) * path.rtt / 8
    fill_round, prev = None, 0.0
    for i, (_t, total) in enumerate(flow.stats.progress):
        if total - prev >= 0.95 * bdp_bytes:
            fill_round = i + 1
            break
        prev = total
    bytes_before_full = flow.stats.progress[fill_round - 1][1]
    return path, fill_round, bytes_before_full


def goodput_for_size(nbytes):
    sim = Simulator(seed=2)
    bell = build_dumbbell(sim)
    path = bell.network.path_between(bell.server, bell.client)
    done = []
    # Include connection setup (1 RTT) like a real fetch.
    def start():
        TcpFlow(sim, path, nbytes, on_complete=done.append)
    sim.schedule(path.rtt, start)
    sim.run()
    total_time = sim.now
    return nbytes * 8 / total_time


def experiment():
    report = ExperimentReport(
        "E2", "TCP ramp-up over 1 Gbps x 50 ms (paper SIV-D arithmetic)",
        columns=("transfer size", "achieved goodput (Mbps)",
                 "fraction of line rate"))
    path, fill_round, bytes_before_full = measure_rampup()

    sizes = [("100 KiB", kib(100)), ("1 MiB", mib(1)), ("10 MiB", mib(10)),
             ("100 MiB", mib(100)), ("1 GiB", mib(1024))]
    fractions = {}
    for label, size in sizes:
        goodput = goodput_for_size(size)
        fractions[label] = goodput / gbps(1)
        report.add_row(label, goodput / 1e6, fractions[label])

    report.check(
        "RTTs before the pipe is full",
        "~10 RTTs", f"{fill_round} RTTs", 8 <= fill_round <= 12)
    report.check(
        "cumulative bytes before utilizing capacity",
        "over 14 MB (IW10 slow-start sum ~14.9 MB)",
        f"{bytes_before_full / 1e6:.1f} MB",
        12e6 < bytes_before_full < 16e6)
    report.check(
        "typical web transfers never reach line rate",
        "1 MiB transfer achieves < 15% of 1 Gbps",
        f"{fractions['1 MiB']:.1%}", fractions["1 MiB"] < 0.15)
    report.check(
        "only very large transfers approach capacity",
        "1 GiB achieves > 75% of line rate; 100 KiB < 2%",
        f"1 GiB {fractions['1 GiB']:.1%}, 100 KiB {fractions['100 KiB']:.1%}",
        fractions["1 GiB"] > 0.75 and fractions["100 KiB"] < 0.02)
    report.note(f"path RTT {path.rtt * 1e3:.1f} ms, BDP "
                f"{gbps(1) * path.rtt / 8 / 1e6:.2f} MB, IW10 slow start.")
    return report
