#!/usr/bin/env python3
"""Platform benchmark: host time per simulated operation, end to end and
per layer, on seven scenario workloads.

    python3 benchmarks/platform/run.py                  every workload
    python3 benchmarks/platform/run.py --workload W [--seed S]
            [--seconds N | --reps N] [--trace 0|1] [--trace-out F]
    python3 benchmarks/platform/run.py --agree          two sets of runs

One workload runs per process (so ``peak_rss_mb`` is per workload); with
no ``--workload`` each one runs in a child. The last line of a
single-workload run is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it carries the raw reps and
slices. See README.md beside this file for every name printed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# src for ``repro``; the root for the chaos world in ``tests``.
for entry in (str(ROOT), str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

DEFAULT_SEED = 7
# With fewer reps a slice is too seldom seen undisturbed.
MIN_REPS = 3
# Runs (one seed each) per set of ``--agree``.
AGREE_RUNS = 10
EXPECTED_PATH = HERE / "expected.json"
# The BENCH_nocdn.json cell nocdn_fleet_10k reproduces at seed 7.
NOCDN_CELL = "z0p9_f10000_sharded"
NOCDN_CELL_FACTS = ("loads_ok", "load_errors", "total_bytes",
                    "bytes_from_peers", "origin_egress_bytes",
                    "origin_offload", "byte_hit_ratio")


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def machine_line() -> str:
    return (f"machine: nproc={os.cpu_count()} "
            f"load1={os.getloadavg()[0]:.2f} "
            f"python={platform.python_version()}")


# -- one workload, in this process -------------------------------------------------


def check_expected(name: str, seed: int, rep: dict) -> list:
    """Problems against the committed facts (seeds 7 and 11 only)."""
    problems = []
    expected = {}
    if EXPECTED_PATH.exists():
        with open(EXPECTED_PATH, encoding="utf-8") as fh:
            expected = json.load(fh)
    want = expected.get(name, {}).get(str(seed))
    if want is None:
        print(f"  sim_digest {rep['digest']} (no committed value for "
              f"seed {seed})")
    elif want["sim_digest"] != rep["digest"]:
        changed = sorted(k for k in set(want["facts"]) | set(rep["facts"])
                         if want["facts"].get(k) != rep["facts"].get(k))
        problems.append(f"sim_digest differs from expected.json; facts "
                        f"that moved: {', '.join(changed)}")
    else:
        print(f"  sim_digest {rep['digest']} (matches expected.json)")
    return problems


def untraced_reps(cls: type, args: argparse.Namespace) -> list:
    """At least MIN_REPS fresh worlds, then more while one more is
    expected to fit in the measured-phase budget."""
    import measure

    reps = []
    measured = 0.0
    while True:
        reps.append(measure.run_rep(cls, args.seed))
        measured += reps[-1]["wall_s"]
        if args.reps:
            if len(reps) >= args.reps:
                return reps
        elif (len(reps) >= MIN_REPS
              and measured + measured / len(reps) > args.seconds):
            return reps


def rep_summary(reps: list) -> dict:
    """Each rep's own totals with their median and quartiles, so the
    spread of the reps can be read next to the per-slice estimate."""
    per_rep = {"host_ms_per_op": [r["wall_s"] * 1e3 / r["attempted"]
                                  for r in reps],
               "cpu_ms_per_op": [r["cpu_s"] * 1e3 / r["attempted"]
                                 for r in reps],
               "setup_s": [r["setup_s"] for r in reps]}
    summary = {}
    for name, values in per_rep.items():
        row = {"reps": values, "median": statistics.median(values)}
        if len(values) > 1:
            row["q1"], _q2, row["q3"] = statistics.quantiles(values, n=4)
        summary[name] = row
    return summary


def print_end_to_end(args, contract: dict, reps: list, metrics: dict,
                     summary: dict) -> None:
    import measure

    first = reps[0]
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    print(f"workload {args.workload} seed {args.seed}: {len(reps)} reps of "
          f"{first['attempted']} operations, open loop (operations start at "
          f"fixed simulated instants)")
    for name, value in metrics.items():
        note = ""
        if name == "slice_ms_per_op_p75":
            note = f"  ({len(measure.slice_costs(reps))} slices)"
        elif "q1" in summary.get(name, ()):
            row = summary[name]
            spread = (row["q3"] - row["q1"]) / row["median"]
            note = (f"  (reps: median {row['median']:.4f}, quartile spread "
                    f"{spread:.3f})")
            if spread > bounds[name]:
                note += f"  WARNING: above the bound {bounds[name]}"
        print(f"  {name:<24}{value:>12.4f} {units[name]:<4} host{note}")
    facts = first["facts"]
    print(f"  {'op_fail_ratio':<24}{first['failed']:>7}/{first['attempted']}")
    if "sim_op_p50_ms" in facts:
        print(f"  {'sim_op_p50_ms':<24}{facts['sim_op_p50_ms']:>12.4f} ms   "
              f"simulated")
        print(f"  {'sim_op_tail_ms':<24}{facts['sim_op_tail_ms']:>12.4f} ms   "
              f"simulated (q={first['sim_tail_q']:.4f} of {facts['ok']})")


def traced_rep(cls: type, args: argparse.Namespace, contract: dict,
               reps: list) -> tuple:
    """One more rep under the span recorder: (rep, metrics, problems)."""
    import measure
    import spans as spanlib

    rec = spanlib.Recorder()
    patched = spanlib.install(rec)
    try:
        traced = measure.run_rep(cls, args.seed, rec=rec)
    finally:
        spanlib.uninstall(patched)
    problems = []
    if traced["digest"] != reps[0]["digest"]:
        problems.append("traced and untraced sim_digest differ")
    units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    metrics = measure.per_layer(list(units), traced, reps, rec)
    if metrics["trace.unattributed_share"] > 0.02:
        problems.append(f"trace.unattributed_share "
                        f"{metrics['trace.unattributed_share']:.4f} > 0.02")
    print(f"traced rep: {len(rec.spans)} spans, wall "
          f"{traced['wall_s']:.3f} s")
    print(f"  {'layer':<11}{'self_s':>10}{'share':>8}{'calls':>9}")
    for layer in spanlib.LAYERS:
        if metrics[f"{layer}.calls"]:
            print(f"  {layer:<11}{metrics[f'{layer}.self_s']:>10.4f}"
                  f"{metrics[f'{layer}.share']:>8.3f}"
                  f"{int(metrics[f'{layer}.calls']):>9}")
    for name, value in metrics.items():
        if name.rsplit(".", 1)[1] not in ("self_s", "share", "calls"):
            print(f"  {name:<32}{value:>16.4f} {units[name]}")
    if args.trace_out:
        spanlib.write_jsonl(rec.spans, args.trace_out)
        print(f"wrote {len(rec.spans)} spans to {args.trace_out}")
    return traced, metrics, problems


RAW_REP_KEYS = ("setup_s", "wall_s", "cpu_s", "outside", "slices", "events",
                "rss_mb")


def run_workload(args: argparse.Namespace) -> int:
    import measure
    import scenarios

    cls = scenarios.WORKLOADS[args.workload]
    contract = load_contract()
    print(machine_line())
    measure.warm_up(cls, args.seed)
    reps = untraced_reps(cls, args)

    first = reps[0]
    problems = sorted({p for rep in reps for p in rep["problems"]})
    if any(r["digest"] != first["digest"] for r in reps):
        problems.append("reps of one seed produced different sim_digests")
    metrics = measure.end_to_end(reps)
    summary = rep_summary(reps)
    print_end_to_end(args, contract, reps, metrics, summary)
    problems += check_expected(args.workload, args.seed, first)
    raw = {"workload": args.workload, "seed": args.seed,
           "reps": [{k: r[k] for k in RAW_REP_KEYS} for r in reps],
           "summary": summary, "facts": first["facts"],
           "sim_digest": first["digest"]}
    shown = contract["end_to_end"]
    if args.trace:
        traced, metrics, trace_problems = traced_rep(cls, args, contract,
                                                     reps)
        problems += trace_problems
        raw["traced"] = {k: traced[k] for k in RAW_REP_KEYS}
        shown = contract["per_layer"]

    for problem in problems:
        print(f"INCORRECT: {problem}")
    attempted = sum(r["attempted"] for r in reps)
    failed = attempted if problems else sum(r["failed"] for r in reps)
    print("raw " + json.dumps(raw))
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in shown}}))
    return 1 if problems else 0


def check_nocdn_cell() -> int:
    """Replay the BENCH_nocdn.json cell nocdn_fleet_10k is the first
    third of, and require its committed facts (read-only) to match."""
    import measure
    import scenarios

    with open(ROOT / "BENCH_nocdn.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    cell = doc["cells"][NOCDN_CELL]
    facts = measure.run_rep(scenarios.NocdnFleetCell, doc["seed"])["facts"]
    moved = [k for k in NOCDN_CELL_FACTS if cell[k] != facts[k]]
    if moved:
        print(f"INCORRECT: facts differ from BENCH_nocdn.json cell "
              f"{NOCDN_CELL}: {', '.join(moved)}")
        return 1
    print(f"The 360-load replay of `BENCH_nocdn.json` cell `{NOCDN_CELL}` "
          f"matches its committed facts ({', '.join(NOCDN_CELL_FACTS)}).")
    return 0


# -- children ------------------------------------------------------------------------------


def run_child(workload: str, seed: int, extra: list) -> dict:
    """One workload in its own process; returns its result and raw line."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed)] + extra
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("raw "):
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: run failed (exit {proc.returncode})")
    return {"exit": proc.returncode, "text": "\n".join(lines[:-2]),
            "raw": json.loads(lines[-2][4:]), "result": json.loads(lines[-1])}


def passthrough(args: argparse.Namespace, trace: int) -> list:
    extra = ["--seconds", str(args.seconds), "--trace", str(trace)]
    if args.reps:
        extra += ["--reps", str(args.reps)]
    return extra


def run_all(args: argparse.Namespace) -> int:
    contract = load_contract()
    worst = 0
    for entry in contract["workloads"]:
        child = run_child(entry["name"], args.seed,
                          passthrough(args, args.trace))
        print(child["text"])
        print()
        worst = max(worst, child["exit"])
    return worst


# -- agreement of two sets of runs ------------------------------------------------------


def spread_of(values: list) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_agree(args: argparse.Namespace) -> int:
    """Two sets of AGREE_RUNS runs per workload, one seed per run; the
    acceptance rule of the benchmark contract, applied to this code."""
    contract = load_contract()
    seeds = [args.seed + i for i in range(AGREE_RUNS)]
    print("# Agreement of two sets of runs on the same code\n")
    print(f"{machine_line()}; seeds {seeds[0]}..{seeds[-1]}, "
          f"`--seconds {args.seconds}`, one run per seed and set.\n")
    print("A metric agrees when the second set's median is no worse than "
          "the first's by more than its bound, and steady when the "
          "interquartile spread of a set (as a share of its median) is "
          "within the bound (`setup_s` spread is reported, not judged).\n")
    failures = check_nocdn_cell()
    print()
    raw_rows = []
    for entry in contract["workloads"]:
        name = entry["name"]
        sets = []
        for label in "AB":
            runs = []
            for seed in seeds:
                child = run_child(name, seed, passthrough(args, 0))
                if child["exit"]:
                    print(child["text"])
                    failures += 1
                runs.append(child["result"]["metrics"])
                raw_rows.append((name, label, seed,
                                 child["result"]["metrics"],
                                 child["raw"]["sim_digest"]))
            sets.append(runs)
        print(f"## {name}\n")
        print("| metric | bound | median A | median B | B worse by | "
              "spread A | spread B | verdict |")
        print("|---|---|---|---|---|---|---|---|")
        for metric in contract["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            a = [run[key]["value"] for run in sets[0]]
            b = [run[key]["value"] for run in sets[1]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a
            spreads = (spread_of(a), spread_of(b))
            ok = worse <= bound and (key == "setup_s"
                                     or max(spreads) <= bound)
            failures += not ok
            print(f"| `{key}` | {bound} | {med_a:.4f} | {med_b:.4f} | "
                  f"{worse:+.4f} | {spreads[0]:.4f} | {spreads[1]:.4f} | "
                  f"{'agrees' if ok else 'DISAGREES'} |")
        digests_a = [r[4] for r in raw_rows if r[0] == name and r[1] == "A"]
        digests_b = [r[4] for r in raw_rows if r[0] == name and r[1] == "B"]
        exact = digests_a == digests_b
        failures += not exact
        print(f"\n`sim_digest` per seed: "
              f"{'identical in both sets' if exact else 'DIFFERS'}.\n",
              flush=True)
    print("## Every run made\n")
    names = [m["name"] for m in contract["end_to_end"]]
    print("| workload | set | seed | " + " | ".join(names) + " |")
    print("|---|---|---|" + "---|" * len(names))
    for name, label, seed, metrics, _digest in raw_rows:
        print(f"| {name} | {label} | {seed} | " + " | ".join(
            f"{metrics[k]['value']:.4f}" for k in names) + " |")
    return 1 if failures else 0


def write_expected(args: argparse.Namespace) -> int:
    """Regenerate expected.json (seeds 7 and 11): only for a change that
    means to alter simulated behaviour."""
    if check_nocdn_cell():
        return 1
    contract = load_contract()
    expected = {}
    for entry in contract["workloads"]:
        for seed in (7, 11):
            child = run_child(entry["name"], seed, ["--reps", "1"])
            expected.setdefault(entry["name"], {})[str(seed)] = {
                "sim_digest": child["raw"]["sim_digest"],
                "facts": child["raw"]["facts"]}
            print(entry["name"], seed, child["raw"]["sim_digest"])
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=load_contract()["run_seconds"],
                        help=f"measured-phase budget: after {MIN_REPS} reps "
                             "another starts only while it is expected "
                             "to fit")
    parser.add_argument("--reps", type=int, default=0,
                        help="exactly this many reps instead of --seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one more rep, traced; prints the "
                             "per-layer metrics")
    parser.add_argument("--traced", action="store_const", const=1,
                        dest="trace", help="same as --trace 1")
    parser.add_argument("--trace-out", help="write the spans as JSONL")
    parser.add_argument("--agree", action="store_true")
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args()
    if args.write_expected:
        return write_expected(args)
    if args.agree:
        return run_agree(args)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
