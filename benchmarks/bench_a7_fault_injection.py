"""A7 (ablation) — graceful degradation under churn.

Runs the chaos world (NoCDN page serving + attic peer backup, see
``repro.workloads.chaos``) at 0%, 5%, and 20% HPoP churn and
measures what the user actually feels: page-load p99 and the attic's
time-to-repair. The paper's dependability story (SIV) is that
home-resident services degrade, not fail — so every load must still
complete at 20% churn, the latency penalty must stay bounded, and the
attic must finish its repairs. Writes a fresh ``BENCH_faults.json``
under ``artifacts/bench/``.
"""

from repro.experiments.benchrun import write_bench_file
from repro.metrics.report import ExperimentReport
from repro.workloads.chaos import NUM_LOADS, run_chaos

SEED = 101
CHURN_LEVELS = (0.0, 0.05, 0.20)
# A fleet large enough that 5% and 20% sample different crash counts
# (the chaos test's 8-peer world rounds both levels to one crash).
NUM_PEERS = 21


def _quantile(samples, q):
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _measure(fraction):
    world, plan, results, errors = run_chaos(SEED, fraction=fraction,
                                             num_peers=NUM_PEERS)
    durations = [r.duration for r in results]
    repair = world.owner.metrics.histograms["time_to_repair_seconds"]
    return {
        "planned_faults": len(plan),
        "loads_completed": len(results),
        "load_errors": len(errors),
        "load_p50_s": _quantile(durations, 0.50),
        "load_p99_s": _quantile(durations, 0.99),
        "repairs": repair.count,
        "repair_mean_s": repair.sum / repair.count if repair.count else 0.0,
        "fully_redundant": world.attic_fully_redundant(),
        "repair_gave_up":
            world.owner.metrics.counters["auto_repair_gave_up"].value,
    }


def experiment():
    report = ExperimentReport(
        "A7", "Fault injection: service degradation under HPoP churn",
        columns=("churn", "loads ok", "p50 load", "p99 load",
                 "repairs", "attic redundant"))
    rows = {}
    for fraction in CHURN_LEVELS:
        row = _measure(fraction)
        rows[fraction] = row
        report.add_row(
            f"{fraction:.0%}",
            f"{row['loads_completed']}/{NUM_LOADS}",
            f"{row['load_p50_s']:.2f}s",
            f"{row['load_p99_s']:.2f}s",
            row["repairs"],
            "yes" if row["fully_redundant"] else "NO")

    calm, storm = rows[0.0], rows[0.20]
    report.check(
        "every page load completes even at 20% churn",
        f"{NUM_LOADS} loads, 0 errors at every churn level",
        ", ".join(f"{f:.0%}: {rows[f]['loads_completed']} ok "
                  f"{rows[f]['load_errors']} err" for f in CHURN_LEVELS),
        all(r["loads_completed"] == NUM_LOADS and r["load_errors"] == 0
            for r in rows.values()))
    report.check(
        "churn costs latency, not availability",
        "20% churn p99 <= 10x the churn-free p99",
        f"{storm['load_p99_s']:.2f}s vs {calm['load_p99_s']:.2f}s",
        storm["load_p99_s"] <= 10 * max(calm["load_p99_s"], 0.01))
    report.check(
        "the attic repairs itself after every storm",
        "full redundancy restored, nothing gave up, at every level",
        ", ".join(f"{f:.0%}: redundant={rows[f]['fully_redundant']}"
                  for f in CHURN_LEVELS),
        all(r["fully_redundant"] and r["repair_gave_up"] == 0
            for r in rows.values()))
    report.check(
        "faults actually fired in the churn runs",
        "planned faults > 0 and repairs observed at 20% churn",
        f"{storm['planned_faults']} faults, {storm['repairs']} repairs",
        storm["planned_faults"] > 0 and storm["repairs"] > 0)

    path = write_bench_file("BENCH_faults.json", {
        "experiment": "A7",
        "seed": SEED,
        "loads_per_run": NUM_LOADS,
        "churn_levels": {
            f"{fraction:.0%}": {
                key: (round(value, 4) if isinstance(value, float) else value)
                for key, value in rows[fraction].items()
            } for fraction in CHURN_LEVELS
        },
    })
    report.note(f"wrote {path.name}")
    return report
