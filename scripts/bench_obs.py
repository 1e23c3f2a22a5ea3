#!/usr/bin/env python3
"""Observability overhead benchmark -> BENCH_obs.json (``make bench-obs``).

Writes a fresh ``BENCH_obs.json`` under ``artifacts/bench/``; the
committed root copy is the baseline ``make bench-check`` compares it with.

Answers the governing question of the fleet observability stack: what
does *full* observability — lite tracing with tail-based sampling,
per-home metric columns folded into cohort rollups, a TSDB scraping
on a cadence, exemplar capture, and a burn-rate SLO monitor — cost on
top of the bare engine at fleet scale, and is every error and fault
trace still retained at a 2% hash-sampling rate?

Each fleet size runs the *same* seeded scenario twice per rep — once
bare (fleet + per-home instrumentation + request load + fault plan,
no collectors) and once with the full observability stack — and the
reported ``overhead_ratio`` is the min-of-reps wall-clock ratio. The
per-home metric *updates* happen in both runs: instrumentation is an
application cost; what this bench prices is collection.

Methodology (wall-clock benches on shared machines are noisy):

- bare/obs runs interleave within each rep, so slow machine phases hit
  both sides, and the reported numbers are min-of-N — the closest
  observable to the true floor;
- the garbage collector is frozen (``gc.disable``) across the timed
  window so a collection landing in one side's window cannot skew the
  ratio;
- CPU time (``time.process_time``) is recorded alongside wall time as
  a scheduler-noise-immune cross-check (``cpu_ratio``).

The obs runs double as the determinism gate: every obs rep exports its
TSDB, sampled trace, and SLO logs, and their digests must agree
byte-for-byte across reps (same seed -> same bytes).
"""

import gc
import hashlib
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments.benchrun import write_bench_file  # noqa: E402
from repro.faults import FaultInjector, FaultPlan, LinkFlap  # noqa: E402
from repro.obs.sampling import ExemplarStore  # noqa: E402
from repro.obs.slo import BurnRule, RatioSli, SloMonitor, SloSpec  # noqa: E402
from repro.obs.timeseries import TimeSeriesDB  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402
from repro.workloads.fleet import (  # noqa: E402
    FleetSpec,
    FocusRequestLoad,
    build_fleet,
)

# The collection stack's cost is near-constant in fleet size (the
# sampler sees the focus-load traces, the TSDB appends O(focus +
# cohorts + k) rows per scrape), while bare-engine work scales with
# homes — so the <=10% overhead budget is a fleet-scale claim, gated
# at the paper's flagship 100k-home scale.
FLEETS = (100_000,)
REPS = 5
SIM_SECONDS = 40.0
OVERHEAD_BUDGET = 1.10

# One scenario, both modes: 4 focus homes driving 400 requests (every
# 25th stalled slow at the origin, every 10th aimed at a focus HPoP),
# and a 10 s access-link flap that times out the requests aimed at the
# flapped HPoP — so the trace stream contains normal, slow, *and* error
# traces for the sampler to decide on.
SPEC_KW = dict(
    focus_homes=4,
    tick=0.2,
    per_home_metrics=True,
    home_metrics_hot=2,
    home_metrics_churn=32,
    home_metrics_rotate=200,
    rollup_k=4,
    rollup_every=8,
)
LOAD_KW = dict(
    requests=400,
    spacing=0.08,
    timeout=4.0,
    slow_every=25,
    slow_delay=2.0,
    peer_every=10,
)
FLAP_LINK = "hpop-n0h1"
FLAP_AT = 10.0
FLAP_DURATION = 10.0

SAMPLING_RATE = 0.02
SLOW_THRESHOLD = 1.5
TSDB_INTERVAL = 5.0

ERROR_ATTRS = ("error", "timeout", "failed")


def _build(num_homes: int):
    """One seeded scenario instance: fleet, request load, fault plan."""
    sim = Simulator(seed=42)
    fleet = build_fleet(sim, FleetSpec(num_homes=num_homes, **SPEC_KW))
    load = FocusRequestLoad(
        fleet, requests=LOAD_KW["requests"], spacing=LOAD_KW["spacing"],
        timeout=LOAD_KW["timeout"], slow_every=LOAD_KW["slow_every"],
        slow_delay=LOAD_KW["slow_delay"], peer_every=LOAD_KW["peer_every"])
    injector = FaultInjector(sim, fleet.city.network)
    injector.apply(FaultPlan([
        LinkFlap(FLAP_LINK, at=sim.now + FLAP_AT, duration=FLAP_DURATION),
    ]))
    return sim, fleet, load, injector


def _attach_obs(sim, fleet, load):
    """The full collection stack under test."""
    tracer = sim.enable_tracing(capacity=262_144, trace_events=False)
    sampler = tracer.enable_tail_sampling(
        rate=SAMPLING_RATE, slow_threshold=SLOW_THRESHOLD, grace=60.0)
    exemplars = ExemplarStore(sim, window=60.0)
    exemplars.sampler = sampler
    load.exemplars = exemplars
    tsdb = TimeSeriesDB(sim, interval=TSDB_INTERVAL)
    tsdb.add_registry(fleet.registry, source="fleet")
    tsdb.add_registry(load.metrics, source="focusload")
    fleet.attach_rollups(tsdb)
    monitor = SloMonitor(sim, tsdb, [SloSpec(
        name="focusload-availability",
        service="focusload",
        objective=0.99,
        sli=RatioSli(
            total=("focusload/focusload.requests_ok",
                   "focusload/focusload.requests_failed"),
            bad=("focusload/focusload.requests_failed",)),
        rules=(BurnRule("fast", long_window=10.0, short_window=5.0,
                        threshold=1.0),),
        exemplar_metric="focusload.request_seconds",
    )], interval=TSDB_INTERVAL, exemplars=exemplars)
    tsdb.start()
    monitor.start()
    return sampler, tsdb, monitor


def _digest(paths) -> str:
    sha = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            sha.update(fh.read())
    return sha.hexdigest()


def _timed_run(sim, fleet) -> tuple:
    """(wall_s, cpu_s) for SIM_SECONDS of simulation, gc frozen."""
    fleet.start()
    gc.collect()
    gc.disable()
    try:
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        sim.run_until(sim.now + SIM_SECONDS)
        return (time.perf_counter() - wall0, time.process_time() - cpu0)
    finally:
        gc.enable()


def run_bare(num_homes: int) -> tuple:
    sim, fleet, load, _injector = _build(num_homes)
    load.start()
    timing = _timed_run(sim, fleet)
    fleet.stop()
    return timing


def run_obs(num_homes: int) -> dict:
    sim, fleet, load, injector = _build(num_homes)
    sampler, tsdb, monitor = _attach_obs(sim, fleet, load)
    load.start()
    wall, cpu = _timed_run(sim, fleet)
    fleet.stop()
    monitor.finish()

    with tempfile.TemporaryDirectory() as tmp:
        trace_path = os.path.join(tmp, "trace_sampled.jsonl")
        tsdb_path = os.path.join(tmp, "tsdb.jsonl")
        slo_path = os.path.join(tmp, "slo.jsonl")
        sim.tracer.export_jsonl(trace_path)       # flushes the sampler
        tsdb.export_jsonl(tsdb_path)
        monitor.export_jsonl(slo_path)
        digest = _digest((trace_path, tsdb_path, slo_path))

    kept = sampler.kept_spans()
    error_traces = set()
    fault_spans = 0
    for span in kept:
        name = getattr(span, "name", "")
        if name.startswith("fault."):
            fault_spans += 1
        attrs = getattr(span, "attrs", None)
        if attrs and any(attrs.get(key) for key in ERROR_ATTRS):
            error_traces.add(span.trace_id)
    stats = sampler.stats_record()
    alerts = [e for e in monitor.events if e.get("state") == "firing"]
    return {
        "wall": wall,
        "cpu": cpu,
        "digest": digest,
        "requests_ok": len(load.results),
        "request_errors": len(load.errors),
        "traces_seen": stats["traces_seen"],
        "traces_kept": stats["traces_kept"],
        "kept_by_reason": stats["kept_by_reason"],
        "spans_kept": stats["spans_kept"],
        "error_traces_kept": len(error_traces),
        "errors_all_kept": 0 < len(load.errors) <= len(error_traces),
        "fault_spans_kept": fault_spans,
        "scrape_rows_last": tsdb.last_scrape_rows,
        "tsdb_series": len(tsdb.series),
        "alerts_fired": len(alerts),
        "alerts_linked": sum(1 for a in alerts if a.get("exemplar_trace")),
    }


def bench_fleet(num_homes: int, reps: int = REPS) -> dict:
    bare_walls, bare_cpus, obs_walls, obs_cpus = [], [], [], []
    obs_facts = None
    digests = set()
    for rep in range(reps):
        wall, cpu = run_bare(num_homes)
        bare_walls.append(wall)
        bare_cpus.append(cpu)
        facts = run_obs(num_homes)
        obs_walls.append(facts.pop("wall"))
        obs_cpus.append(facts.pop("cpu"))
        digests.add(facts.pop("digest"))
        obs_facts = facts
        print(f"  rep {rep + 1}/{reps}: bare {bare_walls[-1] * 1e3:.0f} ms, "
              f"obs {obs_walls[-1] * 1e3:.0f} ms", flush=True)

    bare_wall, obs_wall = min(bare_walls), min(obs_walls)
    bare_cpu, obs_cpu = min(bare_cpus), min(obs_cpus)
    overhead = obs_wall / bare_wall
    result = {
        "homes": num_homes,
        "sim_seconds": SIM_SECONDS,
        "reps": reps,
        "bare_wall_s": round(bare_wall, 6),
        "obs_wall_s": round(obs_wall, 6),
        "bare_cpu_s": round(bare_cpu, 6),
        "obs_cpu_s": round(obs_cpu, 6),
        "overhead_ratio": round(overhead, 4),
        "cpu_ratio": round(obs_cpu / bare_cpu, 4),
        "budget": OVERHEAD_BUDGET,
        "within_budget": overhead <= OVERHEAD_BUDGET,
        "deterministic": len(digests) == 1,
    }
    result.update(obs_facts)
    return result


def experiment() -> dict:
    doc = {
        "bench": "obs_overhead",
        "config": {
            "spec": SPEC_KW,
            "load": LOAD_KW,
            "flap": {"link": FLAP_LINK, "at": FLAP_AT,
                     "duration": FLAP_DURATION},
            "sampling_rate": SAMPLING_RATE,
            "slow_threshold": SLOW_THRESHOLD,
            "tsdb_interval": TSDB_INTERVAL,
        },
        "fleets": {},
    }
    for num_homes in FLEETS:
        print(f"fleet {num_homes} homes ...", flush=True)
        cell = bench_fleet(num_homes)
        doc["fleets"][str(num_homes)] = cell
        print(f"  overhead {cell['overhead_ratio']:.3f}x wall "
              f"({cell['cpu_ratio']:.3f}x cpu), "
              f"{cell['traces_kept']}/{cell['traces_seen']} traces kept, "
              f"{cell['scrape_rows_last']} rows/scrape", flush=True)
    print(f"wrote {write_bench_file('BENCH_obs.json', doc)}")
    return doc


def main() -> int:
    doc = experiment()
    bad = [size for size, cell in doc["fleets"].items()
           if not (cell["within_budget"] and cell["deterministic"]
                   and cell["errors_all_kept"] and cell["fault_spans_kept"])]
    if bad:
        print(f"FAIL: budget/determinism/retention gate: {bad}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
