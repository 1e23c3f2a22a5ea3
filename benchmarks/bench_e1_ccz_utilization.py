"""E1 — CCZ utilization (paper SII, quoting the CCZ measurement study [4]).

Claim reproduced: on a symmetric 1 Gbps FTTH link, households running
conventional applications "only exceed a download rate of 10 Mbps 0.1%
of the time and a 0.5 Mbps upload rate 1% of the time" — i.e. the
gigabit link is essentially idle, which is the motivation for the whole
paper. We generate the era's application mix for a panel of households
and compute the same per-second-rate exceedance fractions.
"""

import random

from repro.metrics.report import ExperimentReport
from repro.util.stats import Cdf
from repro.util.units import gbps, hours, mbps
from repro.workloads.traffic import HouseholdProfile, HouseholdTrafficModel

NUM_HOUSEHOLDS = 25
DURATION = hours(6)


def collect_rates(profile, seed_base):
    down_rates, up_rates = [], []
    for i in range(NUM_HOUSEHOLDS):
        model = HouseholdTrafficModel(profile, random.Random(seed_base + i))
        down, up = model.rate_series(DURATION)
        down_rates.extend(down.rates_bps(horizon=DURATION))
        up_rates.extend(up.rates_bps(horizon=DURATION))
    return Cdf(down_rates), Cdf(up_rates)


def experiment():
    report = ExperimentReport(
        "E1", "CCZ utilization: per-second rate exceedance on 1 Gbps FTTH",
        columns=("profile", "P[down > 10 Mbps]", "P[up > 0.5 Mbps]",
                 "P[down > 100 Mbps]", "p99 down (Mbps)"))

    typical_down, typical_up = collect_rates(HouseholdProfile.typical(), 100)
    heavy_down, heavy_up = collect_rates(HouseholdProfile.heavy(), 200)

    t_down_10 = typical_down.fraction_above(mbps(10))
    t_up_half = typical_up.fraction_above(mbps(0.5))
    report.add_row("typical", t_down_10, t_up_half,
                   typical_down.fraction_above(mbps(100)),
                   typical_down.quantile(0.99) / 1e6)
    report.add_row("heavy", heavy_down.fraction_above(mbps(10)),
                   heavy_up.fraction_above(mbps(0.5)),
                   heavy_down.fraction_above(mbps(100)),
                   heavy_down.quantile(0.99) / 1e6)

    report.check(
        "download rarely exceeds 10 Mbps (paper: 0.1% of seconds)",
        "fraction ~1e-3, certainly < 2%",
        f"{t_down_10:.4%}", t_down_10 < 0.02)
    report.check(
        "upload rarely exceeds 0.5 Mbps (paper: 1% of seconds)",
        "fraction ~1e-2, certainly < 5%",
        f"{t_up_half:.4%}", t_up_half < 0.05)
    report.check(
        "the gigabit link is never close to full",
        "P[down > 500 Mbps] = 0",
        f"{typical_down.fraction_above(mbps(500)):.4%}",
        typical_down.fraction_above(mbps(500)) == 0.0)
    report.check(
        "intensified usage shifts the CDF but still leaves headroom",
        "heavy-profile P[down > 10 Mbps] > typical, yet < 25%",
        f"{heavy_down.fraction_above(mbps(10)):.4%}",
        t_down_10 < heavy_down.fraction_above(mbps(10)) < 0.25)
    report.note(
        "Workload side of the CCZ study reproduced with synthetic "
        "households (25 homes x 6 h); the real study measured ~100 homes.")
    return report
