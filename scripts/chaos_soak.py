#!/usr/bin/env python
"""Fixed-seed chaos soak (``make chaos``).

Drives the chaos world (``repro.workloads.chaos``, the scenario the
acceptance tests in ``tests/integration/test_chaos.py`` run) at a
fixed seed and churn level, twice, and verifies the headline
guarantees of the fault-injection subsystem:

1. every page load started during the churn window completes,
2. the attic returns to full shard redundancy, and
3. the two runs export byte-identical fault-event logs.

Exits non-zero (with a diagnosis) if any guarantee is violated.

With ``--seeds 101,102,...`` (or ranges: ``101-116``) the soak instead
fans the same scenario across every seed through the study runner
(``repro.experiments``) — one process per core unless ``--workers``
caps it — and checks the guarantees per seed from the merged study
summary. The single-seed default path is unchanged.

``--controller`` attaches the autonomous control plane
(``repro.control``) to every run, adds its guarantees to the verdict —
executed remediation actions and no fired alert left without a
decision — and on the single-seed path checks the decision log is
byte-identical across the two runs. Works on both paths, so the same
soak can be run hands-off and self-healing for an A/B comparison.

``--strategy naive|sharded|replicate-hot`` runs the soak with
collaborative caching enabled (placement strategy + content
directory), on either path — churn then exercises shard re-homing.
"""

import argparse
import pathlib
import sys
import tempfile

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.workloads.chaos import (  # noqa: E402
    CHURN_FRACTION,
    NUM_LOADS,
    run_chaos,
)
from study_run import parse_seeds  # noqa: E402


def soak(seed: int, fraction: float, controller: bool = False,
         strategy: str = None) -> int:
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        logs, control_logs = [], []
        for run in ("a", "b"):
            path = pathlib.Path(tmp) / f"faults-{run}.jsonl"
            world, plan, results, errors = run_chaos(
                seed, path, fraction, controller=controller,
                strategy=strategy)
            logs.append(path.read_bytes())
            if controller:
                ctl_path = pathlib.Path(tmp) / f"control-{run}.jsonl"
                world.controller.export_jsonl(str(ctl_path))
                control_logs.append(ctl_path.read_bytes())
        crashes = world.injector.metrics.counters["node_crashes"].value
        failovers = (
            world.loader.metrics.counters["peer_failovers"].value
            + world.loader.metrics.counters["origin_fallbacks"].value)

        line = (f"seed={seed} fraction={fraction}: "
                f"{crashes} crashes, {len(plan)} planned faults, "
                f"{len(results)}/{NUM_LOADS} loads ok, "
                f"{len(errors)} load errors, {failovers} failovers")
        if controller:
            ctl = world.controller
            line += (f", {len(ctl.decisions('executed'))} remediations, "
                     f"{len(ctl.convergences())} alerts converged")
        print(line)

        if errors:
            failures.append(f"{len(errors)} page loads failed")
        if len(results) != NUM_LOADS:
            failures.append(
                f"only {len(results)}/{NUM_LOADS} page loads completed")
        if not world.attic_fully_redundant():
            failures.append("attic did not return to full redundancy")
        if world.owner.metrics.counters["auto_repair_gave_up"].value:
            failures.append("attic auto-repair gave up")
        if logs[0] != logs[1]:
            failures.append("same-seed fault logs differ (determinism bug)")
        if fraction > 0 and not logs[0]:
            failures.append("fault log empty despite non-zero churn")
        if controller:
            if control_logs[0] != control_logs[1]:
                failures.append("same-seed decision logs differ "
                                "(control determinism bug)")
            if not ctl.metrics.counters["actions_executed"].value:
                failures.append("controller never executed an action")
            alerts = [e for e in world.slo_monitor.events
                      if e["state"] == "firing"]
            for alert in alerts:
                if not any(d["trigger"] == f"alert:{alert['slo']}"
                           and d["t"] == alert["t"]
                           for d in ctl.decisions()):
                    failures.append(f"alert {alert['slo']}@{alert['t']:.2f} "
                                    f"left unhandled")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def soak_seeds(seeds, fraction: float, workers: int, out: str,
               controller: bool = False, strategy: str = None) -> int:
    """Multi-seed soak through the parallel study runner."""
    from repro.experiments import StudySpec, build_summary, run_study, \
        write_summary

    params = {"fraction": fraction}
    if controller:
        params["controller"] = True
    if strategy:
        params["strategy"] = strategy
    spec = StudySpec.build(
        "chaos", seeds=seeds, params=params,
        workers=workers, name="chaos-soak")

    def _drive(study_dir: pathlib.Path) -> int:
        result = run_study(spec, study_dir)
        summary = build_summary(study_dir)
        write_summary(study_dir, summary)
        failures = list(result.failed)
        for cell in summary["cells"]:
            facts = cell["result"]
            label = f"seed {cell['seed']}"
            if cell["status"] != "ok":
                continue  # already counted in result.failed
            line = (f"  {label}: {facts.get('loads_ok', '?')} loads ok, "
                    f"{facts.get('load_errors', '?')} errors, "
                    f"{facts.get('planned_faults', '?')} planned faults, "
                    f"attic redundant: {facts.get('attic_redundant')}")
            if controller:
                line += (f", {facts.get('control_actions', '?')} "
                         f"remediations, "
                         f"{facts.get('alerts_converged', '?')} converged")
            print(line)
            if facts.get("load_errors"):
                failures.append(f"{label}: page loads failed")
            if not facts.get("attic_redundant", False):
                failures.append(f"{label}: attic not fully redundant")
            if controller and not facts.get("control_actions"):
                failures.append(f"{label}: controller never acted")
        for row in summary["slo"]["pass_rates"]:
            print(f"  SLO {row['slo']}: {row['met']}/{row['runs']} met, "
                  f"mean error {row['mean_error_rate']:.2%}")
        serial = result.cell_wall_total()
        if result.executed and result.wall_s > 0:
            print(f"  {len(result.executed)} runs on {result.workers} "
                  f"worker(s): wall {result.wall_s:.2f}s vs cell total "
                  f"{serial:.2f}s ({serial / result.wall_s:.2f}x)")
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1 if failures else 0

    if out:
        return _drive(pathlib.Path(out))
    with tempfile.TemporaryDirectory() as tmp:
        return _drive(pathlib.Path(tmp) / "chaos-soak")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--seeds", default=None,
                        help="comma list / inclusive ranges; runs the "
                             "multi-seed study path (e.g. 101-108)")
    parser.add_argument("--fraction", type=float, default=CHURN_FRACTION)
    parser.add_argument("--workers", type=int, default=0,
                        help="pool size for --seeds; 0 = one per CPU")
    parser.add_argument("--out", default="",
                        help="study directory for --seeds (default: a "
                             "temporary directory)")
    parser.add_argument("--controller", action="store_true",
                        help="attach the autonomous control plane and "
                             "check its guarantees too")
    parser.add_argument("--strategy", default=None,
                        choices=("naive", "sharded", "replicate-hot"),
                        help="run the soak with a collaborative-caching "
                             "strategy (default: the classic per-peer "
                             "NoCDN world)")
    args = parser.parse_args()
    if args.seeds:
        try:
            seeds = parse_seeds(args.seeds)
        except ValueError as exc:
            parser.error(str(exc))
        status = soak_seeds(seeds, args.fraction,
                            args.workers, args.out, args.controller,
                            args.strategy)
        if status == 0:
            print("multi-seed chaos soak passed")
        return status
    status = soak(args.seed, args.fraction, args.controller, args.strategy)
    if status == 0:
        print("chaos soak passed")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
