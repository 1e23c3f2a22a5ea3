#!/usr/bin/env python3
"""Benchmark regression gate (``make bench-check``, opt-in).

Compares the ``BENCH_*.json`` files at the repo root against the
committed baselines in ``benchmarks/baselines/`` and exits 1 on any
difference that counts. The rule: **every leaf of a baseline must equal
the fresh value** — the simulator is deterministic, so a moved fact is
a changed behaviour, not noise — **unless the ``HOST_TIME`` table below
names its path**. Those leaves are readings of the host's clock:
``higher`` / ``lower`` rows may be worse than the baseline by at most
``--threshold`` (default 15 %, wide enough for a busy box and narrow
enough to catch a per-byte GF(256) loop coming back), ``ungated`` rows
are recorded for the trajectory and never compared. Because those rows
are machine-dependent the gate is opt-in rather than part of ``make
check``.

``--run`` regenerates the fresh files first, each bench experiment in
a process of its own; without it, whatever was last written at the
repo root is compared. A missing fresh file is reported and skipped
(the gate only judges benches that actually ran).
"""

import argparse
import json
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
for entry in (str(REPO_ROOT), str(REPO_ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

BASELINE_DIR = REPO_ROOT / "benchmarks" / "baselines"
FRESH_DIR = REPO_ROOT

# The only leaves not compared by equality: file -> {dotted path, ``*``
# matching any one key -> "higher" | "lower" (better direction, gated
# at --threshold) | "ungated"}. A file with no entry is all facts.
HOST_TIME = {
    "BENCH_erasure.json": {
        "geometries.*.encode_mb_per_s": "higher",
        "geometries.*.decode_mb_per_s": "higher",
        "baseline_per_byte_encode_mb_per_s": "ungated",
        "encode_speedup_vs_seed": "ungated",
    },
    "BENCH_obs.json": {
        "fleets.*.overhead_ratio": "lower",
        "fleets.*.bare_wall_s": "ungated",
        "fleets.*.bare_cpu_s": "ungated",
        "fleets.*.obs_wall_s": "ungated",
        "fleets.*.obs_cpu_s": "ungated",
        "fleets.*.cpu_ratio": "ungated",
        "fleets.*.reps": "ungated",
    },
}

# Values are dotted module names, or ``scripts/*.py`` paths loaded by
# file (the scripts directory is not a package).
BENCH_MODULES = {
    "BENCH_erasure.json": "benchmarks.bench_a6_erasure_throughput",
    "BENCH_faults.json": "benchmarks.bench_a7_fault_injection",
    "BENCH_control.json": "benchmarks.bench_a8_control",
    "BENCH_nocdn.json": "scripts/bench_nocdn_fleet.py",
    "BENCH_obs.json": "scripts/bench_obs.py",
}


def leaves(node, path=()):
    """Yield ``(path, value)`` for every non-dict value under ``node``."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from leaves(node[key], path + (key,))
    else:
        yield path, node


def host_time_rule(name, path):
    """The ``HOST_TIME`` direction for a leaf, or None for a fact."""
    for pattern, direction in HOST_TIME.get(name, {}).items():
        parts = pattern.split(".")
        if len(parts) == len(path) and all(
                part in ("*", key) for part, key in zip(parts, path)):
            return direction
    return None


def compare_file(name, threshold):
    """Returns (failures, leaves compared, skipped_reason_or_None)."""
    fresh_path = FRESH_DIR / name
    if not fresh_path.exists():
        return [], 0, (f"no fresh {name} at the repo root "
                       f"(run its bench or pass --run)")
    baseline = json.loads((BASELINE_DIR / name).read_text())
    fresh = dict(leaves(json.loads(fresh_path.read_text())))

    failures, checks = [], 0
    for path, base_v in leaves(baseline):
        direction = host_time_rule(name, path)
        if direction == "ungated":
            continue
        checks += 1
        label = f"{name}:{'.'.join(path)}"
        if path not in fresh:
            failures.append(f"{label}: missing from fresh run")
            continue
        fresh_v = fresh[path]
        if direction is None:
            if fresh_v != base_v:
                failures.append(
                    f"{label}: {fresh_v!r} != baseline {base_v!r}")
        elif (fresh_v < base_v * (1 - threshold) if direction == "higher"
              else fresh_v > base_v * (1 + threshold)):
            failures.append(
                f"{label}: {fresh_v:g} vs baseline {base_v:g} "
                f"({direction} is better, budget {threshold * 100:.0f}%)")
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

    A process of its own keeps one bench's heap and warmed caches out
    of the next one's host-time readings.
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
                        help="how much worse a HOST_TIME row may read "
                             "(fraction, default 0.15)")
    parser.add_argument("--run", action="store_true",
                        help="regenerate fresh BENCH files before comparing")
    args = parser.parse_args(argv)

    names = sorted(path.name for path in BASELINE_DIR.glob("BENCH_*.json"))
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
        print(f"{verdict:>4} {name}: {checks} leaves vs "
              f"benchmarks/baselines/{name}"
              + (f", {len(failures)} differ" if failures else ""))

    for failure in total_failures:
        print(f"  REGRESSION {failure}")
    if total_failures:
        return 1
    if total_checks == 0:
        print("no benches compared (nothing fresh); nothing to gate")
    else:
        print(f"bench-check ok: {total_checks} leaves equal to baseline "
              f"(host-time rows within {args.threshold * 100:.0f}%)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
