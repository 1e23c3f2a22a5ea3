"""The experiment driver: ``python -m repro.experiments e1 e6``.

Each ``benchmarks/bench_<id>_*.py`` file reproduces one paper
experiment (E1–E13) or ablation (A1–A8) and exposes a pure
``experiment()`` returning an
:class:`~repro.metrics.report.ExperimentReport`. This module discovers
those files, runs a selection, prints each report and exits non-zero
if any paper-shape claim fails.

Usage::

    python -m repro.experiments              # list available experiments
    python -m repro.experiments e1 e13       # run a selection
    python -m repro.experiments all          # run everything

A bench that records a ledger (A6–A8, and ``scripts/bench_nocdn_fleet.py``
and ``scripts/bench_obs.py``) writes it with :func:`write_bench_file`,
under ``artifacts/bench/``; the committed ``BENCH_*.json`` at the repo
root is the baseline ``scripts/bench_regress.py`` compares it with, and
no run rewrites it.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import re
import sys
from typing import Callable, Dict, List, Optional

_BENCH_PATTERN = re.compile(r"bench_([a-z]\d+)_(.+)\.py$")
# src/repro/experiments/benchrun.py -> the repository root.
REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]
BENCH_DIR = REPO_ROOT / "artifacts" / "bench"


def write_bench_file(name: str, doc: dict) -> pathlib.Path:
    """Write a fresh ``BENCH_*.json`` under :data:`BENCH_DIR`; returns
    its path. The one writer and the one encoding of every ledger."""
    BENCH_DIR.mkdir(parents=True, exist_ok=True)
    path = BENCH_DIR / name
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def find_benchmarks_dir(start: Optional[pathlib.Path] = None) -> pathlib.Path:
    """Locate the ``benchmarks/`` directory from ``start`` upward."""
    current = (start or pathlib.Path.cwd()).resolve()
    for candidate in [current, *current.parents]:
        bench_dir = candidate / "benchmarks"
        if bench_dir.is_dir() and any(bench_dir.glob("bench_*.py")):
            return bench_dir
    # Fall back to the repository layout relative to this file.
    bench_dir = REPO_ROOT / "benchmarks"
    if bench_dir.is_dir():
        return bench_dir
    raise FileNotFoundError("could not locate a benchmarks/ directory")


def discover(bench_dir: Optional[pathlib.Path] = None) -> Dict[str, pathlib.Path]:
    """Map experiment ids (``e1``, ``a3``...) to their bench files."""
    bench_dir = bench_dir or find_benchmarks_dir()
    experiments: Dict[str, pathlib.Path] = {}
    for path in sorted(bench_dir.glob("bench_*.py")):
        match = _BENCH_PATTERN.match(path.name)
        if match:
            experiments[match.group(1)] = path
    return experiments


def load_experiment(path: pathlib.Path) -> Callable:
    """Import a bench module and return its ``experiment`` function."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    experiment = getattr(module, "experiment", None)
    if not callable(experiment):
        raise AttributeError(f"{path.name} has no experiment() function")
    return experiment


def run(ids: List[str], bench_dir: Optional[pathlib.Path] = None) -> int:
    """Run the selected experiments; returns a process exit code."""
    available = discover(bench_dir)
    if not ids:
        print("available experiments:")
        for exp_id, path in available.items():
            print(f"  {exp_id:4s} {path.name}")
        print("\nrun with: python -m repro.experiments <id> [<id> ...] | all")
        return 0
    selected = list(available) if ids == ["all"] else [i.lower() for i in ids]
    unknown = [i for i in selected if i not in available]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}; "
              f"available: {', '.join(available)}")
        return 2
    failures = checks = 0
    for exp_id in selected:
        experiment = load_experiment(available[exp_id])
        report = experiment()
        report.print()
        checks += len(report.claims)
        if not report.all_claims_hold:
            failures += 1
            print(f"!! {exp_id}: {len(report.failed_claims())} claim(s) FAILED")
    print(f"\n{len(selected)} experiment(s) run, "
          f"{len(selected) - failures} fully passing, {checks} claim checks")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    return run(list(argv if argv is not None else sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
