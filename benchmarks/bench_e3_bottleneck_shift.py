"""E3 — Bottleneck shift and lateral bandwidth (paper SII).

Claims reproduced:

- "each home is served by a 1 Gbps link, but the roughly 100 homes are
  then immediately aggregated onto a shared 10 Gbps link ... there will
  be periods when the aggregate link will become the bottleneck" — we
  sweep the number of simultaneously active homes and watch per-flow
  goodput switch from access-limited (~1 Gbps each) to
  aggregate-limited (10 Gbps / k),
- "the CCZ users have dedicated 1 Gbps connectivity to each other,
  bypassing any upstream bottlenecks" — lateral home-to-home transfers
  keep gigabit goodput even while the uplink is saturated.
"""

from repro.metrics.report import ExperimentReport
from repro.net.topology import build_city
from repro.sim.engine import Simulator
from repro.transport.tcp import TcpFlow
from repro.util.units import gbps, mib

MEASURE_WINDOW = 8.0  # seconds of steady-state transfer


def per_flow_goodput(active_homes):
    """Mean goodput of bulk downloads when ``active_homes`` all pull."""
    sim = Simulator(seed=3)
    city = build_city(sim, homes_per_neighborhood=100,
                      server_sites={"dc": active_homes},
                      devices_per_home=1, with_hpops=False)
    nbhd = city.neighborhoods[0]
    flows = []
    for i in range(active_homes):
        device = nbhd.homes[i].devices[0]
        server = city.server_sites["dc"].servers[i]
        path = city.network.path_between(server, device)
        flows.append(TcpFlow(sim, path, mib(100_000),
                             label=f"dl{i}", rng_stream=f"e3.{i}"))
    sim.run_until(MEASURE_WINDOW)
    for flow in flows:
        flow.cancel()
    return sum(f.stats.bytes_delivered * 8 / MEASURE_WINDOW
               for f in flows) / len(flows)


def lateral_goodput_under_uplink_saturation():
    """A home-to-home transfer while 40 homes saturate the uplink."""
    sim = Simulator(seed=4)
    city = build_city(sim, homes_per_neighborhood=100,
                      server_sites={"dc": 40},
                      devices_per_home=1, with_hpops=False)
    nbhd = city.neighborhoods[0]
    for i in range(40):
        device = nbhd.homes[i].devices[0]
        server = city.server_sites["dc"].servers[i]
        path = city.network.path_between(server, device)
        TcpFlow(sim, path, mib(100_000), label=f"bg{i}",
                rng_stream=f"e3bg.{i}")
    a = nbhd.homes[50].devices[0]
    b = nbhd.homes[60].devices[0]
    lateral_path = city.network.path_between(a, b)
    lateral = TcpFlow(sim, lateral_path, mib(100_000), label="lateral",
                      rng_stream="e3.lateral")
    sim.run_until(MEASURE_WINDOW)
    uplink_util = None  # measured via flow accounting below
    return lateral.stats.bytes_delivered * 8 / MEASURE_WINDOW


def experiment():
    report = ExperimentReport(
        "E3", "Bottleneck shift: 100 homes x 1 Gbps on a 10 Gbps aggregate",
        columns=("active homes", "per-flow goodput (Mbps)",
                 "limited by"))
    results = {}
    for k in (1, 5, 20, 40, 80):
        goodput = per_flow_goodput(k)
        results[k] = goodput
        fair_uplink_share = gbps(10) / k
        limiter = ("access link (1 Gbps)" if fair_uplink_share >= gbps(1)
                   else f"aggregate (10G/{k} = {fair_uplink_share / 1e6:.0f} Mbps)")
        report.add_row(k, goodput / 1e6, limiter)

    lateral = lateral_goodput_under_uplink_saturation()
    report.add_row("lateral (40 bg)", lateral / 1e6,
                   "neighbor-to-neighbor, bypasses uplink")

    report.check(
        "few active homes: last mile is the bottleneck",
        "k=5 per-flow goodput near 1 Gbps (>= 700 Mbps)",
        f"{results[5] / 1e6:.0f} Mbps", results[5] > 0.7 * gbps(1))
    report.check(
        "many active homes: bottleneck shifts to the aggregate",
        "k=40 per-flow goodput ~ 10G/40 = 250 Mbps (within 40%)",
        f"{results[40] / 1e6:.0f} Mbps",
        0.6 * gbps(10) / 40 < results[40] < 1.4 * gbps(10) / 40)
    report.check(
        "goodput scales down with population past the shift point",
        "k=80 < k=40 < k=5",
        f"{results[80] / 1e6:.0f} < {results[40] / 1e6:.0f} "
        f"< {results[5] / 1e6:.0f} Mbps",
        results[80] < results[40] < results[5])
    report.check(
        "lateral bandwidth survives uplink saturation",
        "home-to-home transfer keeps >= 700 Mbps while 40 homes download",
        f"{lateral / 1e6:.0f} Mbps", lateral > 0.7 * gbps(1))
    return report
