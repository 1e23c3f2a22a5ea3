"""A8 (ablation) — the autonomous control plane under a churn storm.

Runs the chaos world through an identical seeded 20% churn storm with
repeated link flaps twice — once with the ``repro.control`` plane
attached, once without — and measures what self-healing actually buys:
page-load p99 (quarantining a partitioned peer stops *repeat* failover
penalties) and injection-to-repair time (death probes plus pulled-
forward repair sweeps shorten the attic's redundancy outages). Both
runs carry the full telemetry stack so the alert streams are
comparable; only the controller differs. Writes ``BENCH_control.json``.
"""

import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from benchmarks.common import run_experiment
from repro.metrics.report import ExperimentReport

from repro.faults.plan import FaultPlan, LinkFlap, NodeCrash
from repro.workloads.chaos import ChaosWorld

SEED = 101
CHURN = 0.20
NUM_PEERS = 12
NUM_LOADS = 900
SPACING = 0.08
HORIZON = 45.0
QUARANTINE_S = 45.0
# The same link flaps repeatedly (a "repeat offender"): the first flap
# is the chaos world's built-in one at t0+5, these re-hit it while the
# controller's quarantine window is open, so controller-off eats the
# failover timeout four times and controller-on once.
REPEAT_FLAPS = (12.0, 19.0, 26.0)
FLAP_DURATION = 4.0
# One shard holder crashes in a quiet period after the flap storm, so
# the injection->redundancy outage isolates the repair path (a crash
# inside a flap window would land in the repair rule's cooldown shadow
# and time out identically in both modes).
HOLDER_CRASH_AT = 60.0
HOLDER_DOWNTIME = 12.0
BENCH_JSON = REPO_ROOT / "BENCH_control.json"


def _quantile(samples, q):
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _measure(controller):
    world = ChaosWorld(SEED, num_peers=NUM_PEERS)
    world.enable_telemetry(eval_interval=0.25)
    if controller:
        world.enable_controller(quarantine_s=QUARANTINE_S)
    world.seed_attic()
    world.start_redundancy_probe()
    t0 = world.sim.now
    plan = world.apply_churn(CHURN, flaps=1, horizon=HORIZON)
    storm = FaultPlan()
    for dt in REPEAT_FLAPS:
        storm.add(LinkFlap("hpop-n0h3", at=t0 + dt,
                           duration=FLAP_DURATION))
    holders = sorted({h for entry in world.owner.manifest.values()
                      for h in entry.shard_holders})
    storm.add(NodeCrash(holders[0], at=t0 + HOLDER_CRASH_AT,
                        downtime=HOLDER_DOWNTIME))
    world.injector.apply(storm)
    plan = FaultPlan(plan.faults + storm.faults)
    results, errors = world.schedule_loads(num_loads=NUM_LOADS,
                                           spacing=SPACING)
    world.sim.run_until(world.sim.now + 200.0)
    world.slo_monitor.finish()

    durations = [r.duration for r in results]
    outages = world.repair_outages()
    repair_times = [duration for _start, duration in outages]
    alerts = [e for e in world.slo_monitor.events
              if e["state"] == "firing"]
    row = {
        "planned_faults": len(plan),
        "loads_completed": len(results),
        "load_errors": len(errors),
        "load_p50_s": _quantile(durations, 0.50),
        "load_p99_s": _quantile(durations, 0.99),
        "redundancy_outages": len(outages),
        "repair_mean_s": (sum(repair_times) / len(repair_times)
                          if repair_times else 0.0),
        "repair_max_s": max(repair_times) if repair_times else 0.0,
        "alerts_fired": len(alerts),
        "fully_redundant": world.attic_fully_redundant(),
    }
    if controller:
        ctl = world.controller
        conv = ctl.convergences()
        row.update({
            "decisions": len(ctl.decisions()),
            "actions_executed":
                int(ctl.metrics.counters["actions_executed"].value),
            "messages_sent":
                int(ctl.metrics.counters["messages_sent"].value),
            "alerts_converged": len(conv),
            "convergence_mean_s": (sum(c["convergence_s"] for c in conv)
                                   / len(conv) if conv else 0.0),
            "unhandled_alerts": sum(
                1 for alert in alerts
                if not any(d["trigger"] == f"alert:{alert['slo']}"
                           and d["t"] == alert["t"]
                           for d in ctl.decisions())),
        })
    return row


def experiment():
    report = ExperimentReport(
        "A8", "Autonomous control plane: self-healing vs hands-off",
        columns=("mode", "loads ok", "p99 load", "repair mean",
                 "alerts", "actions", "converged"))
    rows = {}
    for mode, controller in (("off", False), ("on", True)):
        row = _measure(controller)
        rows[mode] = row
        report.add_row(
            mode,
            f"{row['loads_completed']}/{NUM_LOADS}",
            f"{row['load_p99_s']:.2f}s",
            f"{row['repair_mean_s']:.2f}s",
            row["alerts_fired"],
            row.get("actions_executed", "—"),
            row.get("alerts_converged", "—"))

    off, on = rows["off"], rows["on"]
    p99_speedup = (off["load_p99_s"] / on["load_p99_s"]
                   if on["load_p99_s"] else 0.0)
    repair_speedup = (off["repair_mean_s"] / on["repair_mean_s"]
                      if on["repair_mean_s"] else 0.0)

    report.check(
        "the storm degrades, never fails, in both modes",
        f"{NUM_LOADS} loads, 0 errors, attic fully redundant, both modes",
        ", ".join(f"{m}: {rows[m]['loads_completed']} ok "
                  f"{rows[m]['load_errors']} err "
                  f"redundant={rows[m]['fully_redundant']}"
                  for m in ("off", "on")),
        all(r["loads_completed"] == NUM_LOADS and r["load_errors"] == 0
            and r["fully_redundant"] for r in rows.values()))
    report.check(
        "quarantining repeat offenders improves page-load p99",
        "controller-on p99 < controller-off p99",
        f"{on['load_p99_s']:.2f}s vs {off['load_p99_s']:.2f}s "
        f"({p99_speedup:.2f}x)",
        on["load_p99_s"] < off["load_p99_s"])
    report.check(
        "probes + pulled-forward sweeps shorten time-to-repair",
        "controller-on mean injection->redundancy < controller-off",
        f"{on['repair_mean_s']:.2f}s vs {off['repair_mean_s']:.2f}s "
        f"({repair_speedup:.2f}x)",
        0.0 < on["repair_mean_s"] < off["repair_mean_s"])
    report.check(
        "every fired alert maps to a control decision",
        "0 unhandled alerts, and alerts actually fired",
        f"{on['alerts_fired']} alerts, {on['unhandled_alerts']} unhandled, "
        f"{on['alerts_converged']} converged",
        on["alerts_fired"] > 0 and on["unhandled_alerts"] == 0)
    report.check(
        "remediation is action, not just observation",
        "executed actions and control messages > 0",
        f"{on['actions_executed']} actions, {on['messages_sent']} messages",
        on["actions_executed"] > 0 and on["messages_sent"] > 0)

    BENCH_JSON.write_text(json.dumps({
        "experiment": "A8",
        "seed": SEED,
        "loads_per_run": NUM_LOADS,
        "flaps": 1 + len(REPEAT_FLAPS),
        "modes": {
            mode: {
                key: (round(value, 4) if isinstance(value, float)
                      else value)
                for key, value in rows[mode].items()
            } for mode in ("off", "on")
        },
        "p99_speedup": round(p99_speedup, 4),
        "repair_speedup": round(repair_speedup, 4),
    }, indent=2) + "\n")
    report.note(f"wrote {BENCH_JSON.name}")
    return report


def test_a8_control(benchmark):
    run_experiment(benchmark, experiment)
