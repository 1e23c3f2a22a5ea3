#!/usr/bin/env python3
"""Benchmark regression gate (``make bench-check``, opt-in).

Compares freshly produced ``BENCH_*.json`` files at the repo root
against the committed baselines in ``benchmarks/baselines/`` and fails
(exit 1) when a key metric regresses by more than ``--threshold``
(default 15%). Wall-clock throughput numbers are machine-dependent, so
this is an opt-in gate rather than part of ``make check`` — the
committed baselines record the perf trajectory, and the threshold is
wide enough to absorb normal jitter while catching real regressions
(e.g. reintroducing a per-byte GF(256) loop).

``--run`` regenerates the fresh files first, each bench experiment in
a process of its own; without it, whatever ``make bench`` last wrote
at the repo root is compared. A missing fresh file is reported and
skipped (the gate only judges benches that actually ran).

Key metrics:

- ``BENCH_erasure.json``: per-geometry encode/decode MB/s
  (higher-is-better).
- ``BENCH_faults.json``: per-churn-level page-load p50/p99 seconds
  (lower-is-better) plus exact-match guards on ``loads_completed``,
  ``load_errors``, and ``fully_redundant`` — a "perf" win that drops
  loads is a correctness regression, not a speedup.
- ``BENCH_scale.json``: per-fleet-size wall-clock per simulated second
  (lower-is-better), engine deep-heap throughput, the 100k-home
  resident-memory ceiling, and the aggregated-vs-naive 10k-home
  speedup (higher-is-better).
- ``BENCH_control.json``: controller-on vs controller-off page-load
  p99 and mean time-to-repair under the seeded churn storm
  (lower-is-better per mode), the on/off speedup ratios
  (higher-is-better), and exact-match guards on ``loads_completed``,
  ``load_errors``, ``fully_redundant``, and ``unhandled_alerts`` — the
  control plane must never trade correctness for latency.
- ``BENCH_nocdn.json``: exact-match guards per Zipf x fleet x strategy
  cell on every deterministic fact (``loads_ok``, ``load_errors``,
  ``total_bytes``, ``origin_offload``, ``byte_hit_ratio``,
  ``bytes_from_peers``, ``origin_egress_bytes``,
  ``aggregation_uplink_bytes`` — the seeded workload repeats exactly,
  so an optimisation that moves any of them changed behaviour) and on
  ``offload_gate`` — collaborative placement must keep strictly
  beating the naive per-peer cache. ``wall_seconds`` is not gated.
- ``BENCH_obs.json``: the full-stack observability overhead ratio
  (lower-is-better) plus exact guards on ``within_budget`` (the <=10%
  overhead ceiling), ``deterministic`` (byte-identical same-seed
  exports), trace retention (``errors_all_kept``,
  ``fault_spans_kept``, ``traces_kept``), the governed per-scrape row
  count, and exemplar-linked alert counts — the sampler must never
  drop an error or fault trace to buy back overhead.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
for entry in (str(REPO_ROOT), str(REPO_ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

BASELINE_DIR = REPO_ROOT / "benchmarks" / "baselines"

# (file, dotted metric path, direction). Directions: "higher" /
# "lower" are thresholded ratios; "exact" must match the baseline.
KEY_METRICS = [
    ("BENCH_erasure.json", "geometries.{geom}.encode_mb_per_s", "higher"),
    ("BENCH_erasure.json", "geometries.{geom}.decode_mb_per_s", "higher"),
    ("BENCH_faults.json", "churn_levels.{level}.load_p50_s", "lower"),
    ("BENCH_faults.json", "churn_levels.{level}.load_p99_s", "lower"),
    ("BENCH_faults.json", "churn_levels.{level}.loads_completed", "exact"),
    ("BENCH_faults.json", "churn_levels.{level}.load_errors", "exact"),
    ("BENCH_faults.json", "churn_levels.{level}.fully_redundant", "exact"),
    ("BENCH_scale.json", "scales.{scale}.wall_per_sim_second", "lower"),
    ("BENCH_scale.json", "scales.100000.peak_rss_mb", "lower"),
    ("BENCH_scale.json", "engine.deep_heap_events_per_s", "higher"),
    ("BENCH_scale.json", "speedup_10k_vs_naive", "higher"),
    ("BENCH_control.json", "modes.{mode}.load_p99_s", "lower"),
    ("BENCH_control.json", "modes.{mode}.repair_mean_s", "lower"),
    ("BENCH_control.json", "modes.{mode}.loads_completed", "exact"),
    ("BENCH_control.json", "modes.{mode}.load_errors", "exact"),
    ("BENCH_control.json", "modes.{mode}.fully_redundant", "exact"),
    ("BENCH_control.json", "modes.on.unhandled_alerts", "exact"),
    ("BENCH_control.json", "p99_speedup", "higher"),
    ("BENCH_control.json", "repair_speedup", "higher"),
    ("BENCH_nocdn.json", "cells.{cell}.loads_ok", "exact"),
    ("BENCH_nocdn.json", "cells.{cell}.load_errors", "exact"),
    ("BENCH_nocdn.json", "cells.{cell}.total_bytes", "exact"),
    ("BENCH_nocdn.json", "cells.{cell}.origin_offload", "exact"),
    ("BENCH_nocdn.json", "cells.{cell}.byte_hit_ratio", "exact"),
    ("BENCH_nocdn.json", "cells.{cell}.bytes_from_peers", "exact"),
    ("BENCH_nocdn.json", "cells.{cell}.origin_egress_bytes", "exact"),
    ("BENCH_nocdn.json", "cells.{cell}.aggregation_uplink_bytes", "exact"),
    ("BENCH_nocdn.json", "offload_gate", "exact"),
    ("BENCH_obs.json", "fleets.{fleet}.overhead_ratio", "lower"),
    ("BENCH_obs.json", "fleets.{fleet}.within_budget", "exact"),
    ("BENCH_obs.json", "fleets.{fleet}.deterministic", "exact"),
    ("BENCH_obs.json", "fleets.{fleet}.requests_ok", "exact"),
    ("BENCH_obs.json", "fleets.{fleet}.request_errors", "exact"),
    ("BENCH_obs.json", "fleets.{fleet}.traces_seen", "exact"),
    ("BENCH_obs.json", "fleets.{fleet}.traces_kept", "exact"),
    ("BENCH_obs.json", "fleets.{fleet}.errors_all_kept", "exact"),
    ("BENCH_obs.json", "fleets.{fleet}.fault_spans_kept", "exact"),
    ("BENCH_obs.json", "fleets.{fleet}.scrape_rows_last", "exact"),
    ("BENCH_obs.json", "fleets.{fleet}.alerts_fired", "exact"),
    ("BENCH_obs.json", "fleets.{fleet}.alerts_linked", "exact"),
]

# Values are dotted module names, or ``scripts/*.py`` paths loaded by
# file (the scripts directory is not a package).
BENCH_MODULES = {
    "BENCH_erasure.json": "benchmarks.bench_a6_erasure_throughput",
    "BENCH_faults.json": "benchmarks.bench_a7_fault_injection",
    "BENCH_scale.json": "scripts/bench_scale.py",
    "BENCH_control.json": "benchmarks.bench_a8_control",
    "BENCH_nocdn.json": "scripts/bench_nocdn_fleet.py",
    "BENCH_obs.json": "scripts/bench_obs.py",
}


def lookup(doc, dotted):
    node = doc
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def expand_paths(baseline, template):
    """Instantiate {geom}/{level} placeholders from the baseline keys."""
    if "{geom}" in template:
        return [template.replace("{geom}", g)
                for g in sorted(baseline.get("geometries", {}))]
    if "{level}" in template:
        return [template.replace("{level}", lv)
                for lv in sorted(baseline.get("churn_levels", {}))]
    if "{scale}" in template:
        return [template.replace("{scale}", s)
                for s in sorted(baseline.get("scales", {}), key=int)]
    if "{mode}" in template:
        return [template.replace("{mode}", m)
                for m in sorted(baseline.get("modes", {}))]
    if "{cell}" in template:
        return [template.replace("{cell}", c)
                for c in sorted(baseline.get("cells", {}))]
    if "{fleet}" in template:
        return [template.replace("{fleet}", f)
                for f in sorted(baseline.get("fleets", {}), key=int)]
    return [template]


def compare_file(name, threshold):
    """Returns (failures, checks, skipped_reason_or_None)."""
    baseline_path = BASELINE_DIR / name
    fresh_path = REPO_ROOT / name
    if not baseline_path.exists():
        return [], 0, f"no committed baseline {baseline_path}"
    if not fresh_path.exists():
        return [], 0, (f"no fresh {name} at the repo root "
                       f"(run `make bench` or pass --run)")
    baseline = json.loads(baseline_path.read_text())
    fresh = json.loads(fresh_path.read_text())

    failures, checks = [], 0
    for metric_file, template, direction in KEY_METRICS:
        if metric_file != name:
            continue
        for path in expand_paths(baseline, template):
            base_v = lookup(baseline, path)
            fresh_v = lookup(fresh, path)
            if base_v is None:
                continue
            checks += 1
            label = f"{name}:{path}"
            if fresh_v is None:
                failures.append(f"{label}: missing from fresh run")
                continue
            if direction == "exact":
                if fresh_v != base_v:
                    failures.append(
                        f"{label}: {fresh_v!r} != baseline {base_v!r}")
                continue
            base_f, fresh_f = float(base_v), float(fresh_v)
            if base_f == 0.0:
                continue
            if direction == "higher":
                change = (base_f - fresh_f) / base_f
            else:
                change = (fresh_f - base_f) / base_f
            if change > threshold:
                worse = "slower" if direction == "higher" else "higher"
                failures.append(
                    f"{label}: {fresh_f:g} vs baseline {base_f:g} "
                    f"({change * 100:.1f}% {worse}, "
                    f"budget {threshold * 100:.0f}%)")
    return failures, checks, None


def load_bench(target):
    """Import a ``BENCH_MODULES`` value: a module name or a ``.py`` path."""
    import importlib
    import importlib.util
    if not target.endswith(".py"):
        return importlib.import_module(target)
    path = REPO_ROOT / target
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# What each child runs; argv[1] is the BENCH_MODULES value.
_RUN_ONE = ("import sys; sys.path.insert(0, {scripts!r}); "
            "import bench_regress; "
            "bench_regress.load_bench(sys.argv[1]).experiment()"
            ).format(scripts=str(REPO_ROOT / "scripts"))


def run_fresh(names):
    """Regenerate the root BENCH files, one fresh process per file.

    A process of its own keeps one bench's heap out of the next one's
    ``peak_rss_mb`` (the NoCDN sweep used to set ``BENCH_scale.json``'s
    100k-home reading at 324 MiB where the fleet alone holds ~39).
    """
    for name in names:
        target = BENCH_MODULES.get(name)
        if target is None:
            continue
        print(f"running {target} -> {name} ...", flush=True)
        subprocess.run([sys.executable, "-c", _RUN_ONE, target],
                       cwd=REPO_ROOT, check=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="allowed fractional regression (default 0.15)")
    parser.add_argument("--run", action="store_true",
                        help="regenerate fresh BENCH files before comparing")
    args = parser.parse_args(argv)

    names = sorted({name for name, _, _ in KEY_METRICS})
    if args.run:
        run_fresh(names)

    total_failures, total_checks = [], 0
    for name in names:
        failures, checks, skipped = compare_file(name, args.threshold)
        if skipped:
            print(f"SKIP {name}: {skipped}")
            continue
        total_checks += checks
        total_failures.extend(failures)
        verdict = "FAIL" if failures else "ok"
        print(f"{verdict:>4} {name}: {checks} metrics vs "
              f"benchmarks/baselines/{name}"
              + (f", {len(failures)} regressed" if failures else ""))

    for failure in total_failures:
        print(f"  REGRESSION {failure}")
    if total_failures:
        return 1
    if total_checks == 0:
        print("no benches compared (nothing fresh); nothing to gate")
    else:
        print(f"bench-check ok: {total_checks} metrics within "
              f"{args.threshold * 100:.0f}% of baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
