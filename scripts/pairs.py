#!/usr/bin/env python3
"""Paired runs of the platform benchmark: a revision against the
working tree.

    python3 scripts/pairs.py REV --workload W --pairs N [--seed S] [--reps R]

Both sides are exported with ``git archive`` into a temporary
directory: ``REV`` as committed, the working tree (tracked and
untracked files that ``.gitignore`` does not exclude) through a
throwaway index. Each run is one process of
``benchmarks/platform/run.py --workload W --seed S`` in its side's
directory, with ``--reps R`` when given: ``--reps 1`` makes ``setup_s``
one set-up per process, not a median over the reps. Pair ``i`` runs
``REV`` first when ``i`` is odd and the working tree first when it is
even, so a slow spell of the box does not always land on one side.
Nothing but what ``run.py`` prints is read: the last line (``correct``
and the end-to-end metrics) and the ``raw`` line before it (every rep
and slice).

The report, in Markdown on stdout, gives per metric the median and
quartiles of each side, the change of the medians, the per-pair
differences, how many pairs the working tree won, and a bimodality flag
per side. Beside the end-to-end metrics it reports
``first_slice_share``: the first measured slice's share of the
measured phase, by the same least-per-slice estimate ``run.py`` uses.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN_PY = pathlib.Path("benchmarks") / "platform" / "run.py"
SIDES = ("rev", "tree")
FIRST_SLICE = "first_slice_share"


# -- the two checkouts --------------------------------------------------------

def export_rev(rev: str, dest: pathlib.Path) -> None:
    """Write the tree of commit ``rev`` under ``dest``."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=REPO_ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def working_tree_id(scratch: pathlib.Path) -> str:
    """A git tree of the working tree, staged in a throwaway index so
    the repository's own index is left as it was."""
    env = {**os.environ, "GIT_INDEX_FILE": str(scratch / "index")}
    subprocess.run(["git", "add", "-A"], cwd=REPO_ROOT, env=env, check=True)
    return subprocess.run(["git", "write-tree"], cwd=REPO_ROOT, env=env,
                          capture_output=True, text=True,
                          check=True).stdout.strip()


# -- one run ------------------------------------------------------------------

def first_slice_share(raw: dict) -> float:
    """The first slice's share of the measured phase, each part taken as
    the least any rep spent on it (``run.py``'s estimate)."""
    reps = raw["reps"]
    outside = min(rep["outside"][0] for rep in reps)
    per_slice = [min(rep["slices"][k][0] for rep in reps)
                 for k in range(len(reps[0]["slices"]))]
    return per_slice[0] / (outside + sum(per_slice))


def parse_run(stdout: str) -> dict:
    """{metric: value} of one run, plus ``correct`` and ``failed``, from
    the last two lines ``run.py`` printed."""
    lines = stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("raw "):
        raise ValueError("not the output of one run.py workload")
    raw, result = json.loads(lines[-2][4:]), json.loads(lines[-1])
    values = {name: metric["value"]
              for name, metric in result["metrics"].items()}
    values[FIRST_SLICE] = first_slice_share(raw)
    return {"correct": result["correct"], "failed": result["failed"],
            "attempted": result["attempted"], "values": values}


def run_once(side: pathlib.Path, workload: str, seed: int,
             reps: Optional[int]) -> dict:
    command = [sys.executable, str(RUN_PY), "--workload", workload,
               "--seed", str(seed)]
    if reps:
        command += ["--reps", str(reps)]
    done = subprocess.run(command, cwd=side, capture_output=True, text=True,
                          check=False)
    try:
        return parse_run(done.stdout)
    except ValueError:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{side.name}: run.py failed "
                         f"(exit {done.returncode})")


# -- statistics ---------------------------------------------------------------

def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def bimodal(values: List[float]) -> Optional[Tuple[float, float]]:
    """The two cluster medians when ``values`` fall in two clusters,
    else None. Split at the widest gap between sorted neighbours: it is
    two clusters when each side holds at least a fifth of the values
    (two at least), and the gap is wider than three median absolute
    deviations of each side (a few values between the modes do not
    hide them) and than a tenth of the overall median."""
    ordered = sorted(values)
    n = len(ordered)
    least = max(2, n // 5)
    if n < 2 * least:
        return None
    gap, at = max((ordered[i] - ordered[i - 1], i)
                  for i in range(least, n - least + 1))
    sides = ordered[:at], ordered[at:]
    medians = [statistics.median(side) for side in sides]
    spreads = [statistics.median(abs(v - m) for v in side)
               for side, m in zip(sides, medians)]
    if (gap > 3 * max(spreads)
            and gap > 0.1 * abs(statistics.median(ordered))):
        return medians[0], medians[1]
    return None


def compare(rev: List[float], tree: List[float], better: str) -> dict:
    """One metric's row: the paired differences are ``tree - rev``."""
    diffs = [t - r for r, t in zip(rev, tree)]
    sign = -1 if better == "lower" else 1
    tree_wins = sum(1 for d in diffs if sign * d > 0)
    q1, rev_median, q3 = quartiles(rev)
    tree_median = statistics.median(tree)
    return {
        "rev_median": rev_median, "rev_q1": q1, "rev_q3": q3,
        "tree_median": tree_median,
        "tree_q1": quartiles(tree)[0], "tree_q3": quartiles(tree)[2],
        "change": ((tree_median - rev_median) / rev_median
                   if rev_median else 0.0),
        "diffs": diffs,
        "tree_wins": tree_wins,
        "rev_wins": sum(1 for d in diffs if sign * d < 0),
        # A claimable gain: nine pairs in ten won, and the medians
        # differ, the tree's way, by more than the quartile distance of
        # the revision's runs.
        "clear_gain": (10 * tree_wins >= 9 * len(diffs)
                       and sign * (tree_median - rev_median) > q3 - q1),
        "bimodal": {"rev": bimodal(rev), "tree": bimodal(tree)},
    }


# -- the report ---------------------------------------------------------------

def directions() -> Dict[str, str]:
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        contract = json.load(fh)
    found = {m["name"]: m["better"]
             for m in contract["end_to_end"] + contract["per_layer"]}
    found[FIRST_SLICE] = "lower"
    return found


def _num(value: float) -> str:
    return f"{value:.4g}"


def _modes(found: Optional[Tuple[float, float]]) -> str:
    if found is None:
        return "no"
    return f"yes ({_num(found[0])} / {_num(found[1])})"


def report(rev: str, workload: str, seed: int,
           runs: Dict[str, List[dict]]) -> str:
    better = directions()
    names = list(runs["rev"][0]["values"])
    n = len(runs["rev"])
    lines = [
        f"# Pairs: `{workload}` seed {seed}, {rev} against the working tree",
        "",
        f"{n} pairs, one process per run; pair i ran {rev} first when i "
        f"was odd. Differences are tree − {rev}; a win is a pair the tree "
        f"did better on.",
        "",
        f"| metric | {rev} median (q1–q3) | tree median (q1–q3) | change "
        f"| tree wins | {rev} wins | clear gain | bimodal {rev} "
        f"| bimodal tree |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    rows = {}
    for name in names:
        row = compare([r["values"][name] for r in runs["rev"]],
                      [r["values"][name] for r in runs["tree"]],
                      better.get(name, "lower"))
        rows[name] = row
        lines.append(
            f"| {name} | {_num(row['rev_median'])} ({_num(row['rev_q1'])}–"
            f"{_num(row['rev_q3'])}) | {_num(row['tree_median'])} "
            f"({_num(row['tree_q1'])}–{_num(row['tree_q3'])}) | "
            f"{row['change']:+.1%} | {row['tree_wins']}/{n} | "
            f"{row['rev_wins']}/{n} | {'yes' if row['clear_gain'] else 'no'}"
            f" | {_modes(row['bimodal']['rev'])} | "
            f"{_modes(row['bimodal']['tree'])} |")
    lines += ["", "Per-pair differences (tree − " + rev + "):", ""]
    for name in names:
        lines.append(f"- {name}: "
                     + ", ".join(_num(d) for d in rows[name]["diffs"]))
    lines += ["", "Every run:", "",
              "| pair | side | correct | failed | " + " | ".join(names) + " |",
              "|---|---|---|---|" + "---|" * len(names)]
    for i in range(n):
        for side in SIDES:
            run = runs[side][i]
            lines.append(
                f"| {i + 1} | {rev if side == 'rev' else 'tree'} | "
                f"{run['correct']} | {run['failed']}/{run['attempted']} | "
                + " | ".join(_num(run["values"][name]) for name in names)
                + " |")
    return "\n".join(lines) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the commit to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--reps", type=int,
                        help="reps per run (default: run.py's own rule)")
    args = parser.parse_args(argv)
    runs: Dict[str, List[dict]] = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        scratch = pathlib.Path(tmp)
        dirs = {side: scratch / side for side in SIDES}
        export_rev(args.rev, dirs["rev"])
        export_rev(working_tree_id(scratch), dirs["tree"])
        for i in range(1, args.pairs + 1):
            order = SIDES if i % 2 else SIDES[::-1]
            for side in order:
                runs[side].append(run_once(dirs[side], args.workload,
                                           args.seed, args.reps))
            print(f"pair {i}/{args.pairs} done", file=sys.stderr)
    sys.stdout.write(report(args.rev, args.workload, args.seed, runs))
    wrong = [run for side in SIDES for run in runs[side]
             if not run["correct"] or run["failed"]]
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
