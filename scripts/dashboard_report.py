#!/usr/bin/env python3
"""Build the unified run dashboard (``make dashboard``).

Two modes:

- ``--chaos``: run the fixed-seed chaos scenario under the full
  telemetry stack (tracer + TSDB scraper + SLO monitor + event-loop
  profiler), export every artifact into ``--out-dir``, and render the
  dashboard from them.
- artifact mode: point ``--trace/--tsdb/--faults/--slo/--profile`` at
  the JSONL files an earlier run exported — or just ``--artifacts DIR``
  at a directory holding them under the standard names (a study cell
  directory, for instance) — and render those (any subset works;
  missing artifacts just omit their dashboard sections).

Outputs ``dashboard.md`` and ``dashboard.html`` (self-contained, no
external assets) plus, in ``--chaos`` mode, the raw artifacts:
``trace.jsonl``, ``tsdb.jsonl``, ``faults.jsonl``, ``slo.jsonl``,
``control.jsonl`` (the control plane's remediation decision log —
omitted with ``--no-controller``), ``profile.json``, and
``profile.collapsed`` (flamegraph input).

With ``--json`` the dashboard's content is additionally written to
``dashboard.json`` and printed — the machine-readable mirror of the
rendered tables (same idea as ``trace_report.py --json``), which is
what study summaries embed instead of screen-scraping markdown.
"""

import argparse
import json
import os
import pathlib
import sys

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.obs.dashboard import (RunArtifacts, dashboard_json,  # noqa: E402
                                 run_document)
from repro.obs.document import to_html, to_markdown  # noqa: E402

# Standard artifact filenames --artifacts discovers in a directory.
ARTIFACT_FILES = {"trace": "trace.jsonl", "tsdb": "tsdb.jsonl",
                  "faults": "faults.jsonl", "slo": "slo.jsonl",
                  "control": "control.jsonl", "profile": "profile.json"}


def run_chaos_instrumented(seed: int, out_dir: pathlib.Path,
                           controller: bool = True) -> dict:
    """Drive the chaos scenario with every telemetry layer attached."""
    from repro.workloads.chaos import CHURN_FRACTION, ChaosWorld

    world = ChaosWorld(seed)
    tracer = world.sim.enable_tracing(capacity=262144)
    profiler = world.sim.enable_profiling()
    world.enable_telemetry()
    if controller:
        world.enable_controller()
    world.seed_attic()
    plan = world.apply_churn(CHURN_FRACTION)
    results, errors = world.schedule_loads()
    world.sim.run_until(world.sim.now + 150.0)
    world.slo_monitor.finish()

    paths = {
        "trace": out_dir / "trace.jsonl",
        "tsdb": out_dir / "tsdb.jsonl",
        "faults": out_dir / "faults.jsonl",
        "slo": out_dir / "slo.jsonl",
        "profile": out_dir / "profile.json",
    }
    if controller:
        paths["control"] = out_dir / "control.jsonl"
        world.controller.export_jsonl(str(paths["control"]))
    tracer.export_jsonl(str(paths["trace"]))
    world.tsdb.export_jsonl(str(paths["tsdb"]))
    world.injector.export_jsonl(str(paths["faults"]))
    world.slo_monitor.export_jsonl(str(paths["slo"]))
    paths["profile"].write_text(json.dumps(profiler.to_dict(), indent=2,
                                           sort_keys=True))
    profiler.export_collapsed(str(out_dir / "profile.collapsed"))

    actions = ""
    if controller:
        executed = world.controller.metrics.counters[
            "actions_executed"].value
        actions = f"{executed:.0f} remediation actions, "
    print(f"chaos run: seed={seed} {len(plan)} planned faults, "
          f"{len(results)} loads ok, {len(errors)} load errors, "
          f"{len(world.slo_monitor.events)} SLO transitions, "
          f"{actions}"
          f"wall/sim ratio {profiler.wall_sim_ratio:.4f}")
    return {key: str(path) for key, path in paths.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--chaos", action="store_true",
                        help="run the chaos scenario and dashboard it")
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--out-dir", default="artifacts/dashboard",
                        help="artifact + dashboard output directory")
    parser.add_argument("--artifacts", metavar="DIR",
                        help="directory holding artifacts under the "
                             "standard names (trace.jsonl, tsdb.jsonl, "
                             "faults.jsonl, slo.jsonl, profile.json)")
    parser.add_argument("--no-controller", action="store_true",
                        help="with --chaos: run without the control "
                             "plane (no remediation/convergence view)")
    parser.add_argument("--json", action="store_true",
                        help="also write dashboard.json and print the "
                             "machine-readable summary")
    parser.add_argument("--trace", help="trace JSONL from Tracer.export_jsonl")
    parser.add_argument("--tsdb", help="TSDB JSONL from TimeSeriesDB")
    parser.add_argument("--faults", help="fault log from FaultInjector")
    parser.add_argument("--slo", help="SLO log from SloMonitor")
    parser.add_argument("--control",
                        help="decision log from repro.control.Controller")
    parser.add_argument("--profile", help="profiler JSON (LoopProfiler)")
    parser.add_argument("--lookback", type=float, default=10.0,
                        help="alert->fault correlation window (sim s)")
    parser.add_argument("--title", default=None)
    parser.add_argument("--strict", action="store_true",
                        help="exit nonzero when the trace artifact was "
                             "truncated (spans_dropped > 0)")
    args = parser.parse_args(argv)

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.chaos:
        produced = run_chaos_instrumented(
            args.seed, out_dir, controller=not args.no_controller)
        for key, value in produced.items():
            setattr(args, key, getattr(args, key) or value)
        title = args.title or f"chaos scenario, seed {args.seed}"
    else:
        if args.artifacts:
            art_dir = pathlib.Path(args.artifacts)
            if not art_dir.is_dir():
                parser.error(f"--artifacts {art_dir} is not a directory")
            for key, filename in ARTIFACT_FILES.items():
                candidate = art_dir / filename
                if candidate.is_file() and not getattr(args, key):
                    setattr(args, key, str(candidate))
        if not any((args.trace, args.tsdb, args.faults, args.slo)):
            parser.error("give --chaos, --artifacts, or at least one "
                         "artifact path")
        title = args.title or (f"artifacts from {args.artifacts}"
                               if args.artifacts else "simulation run")

    art = RunArtifacts.load(trace_path=args.trace, tsdb_path=args.tsdb,
                            faults_path=args.faults, slo_path=args.slo,
                            control_path=args.control,
                            profile_path=args.profile, title=title)

    md_path = out_dir / "dashboard.md"
    html_path = out_dir / "dashboard.html"
    doc = run_document(art, lookback=args.lookback)
    md_path.write_text(to_markdown(doc), encoding="utf-8")
    html_path.write_text(to_html(doc), encoding="utf-8")
    written = f"{md_path} and {html_path}"
    if args.json:
        payload = dashboard_json(art, lookback=args.lookback)
        json_path = out_dir / "dashboard.json"
        json_path.write_text(json.dumps(payload, sort_keys=True, indent=2)
                             + "\n", encoding="utf-8")
        print(json.dumps(payload, sort_keys=True, indent=2))
        written += f" and {json_path}"
    print(f"wrote {written}")

    firing = [e for e in art.slo_events if e.get("state") == "firing"]
    correlated = [r for r in art.correlations(args.lookback) if r["causes"]]
    if firing:
        print(f"{len(firing)} burn-rate alerts, "
              f"{len(correlated)} correlated to an injected fault")
    if art.control:
        conv = art.control_convergences()
        executed = [d for d in art.control_decisions()
                    if d["outcome"] == "executed"]
        print(f"{len(executed)} remediation actions executed, "
              f"{len(conv)} alerts converged")
    if args.strict and art.trace is not None and art.trace.dropped > 0:
        print(f"strict: {art.trace.dropped} spans dropped by the ring "
              f"buffer (trace artifact incomplete; raise the capacity or "
              f"enable tail sampling)", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
