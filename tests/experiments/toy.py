"""A miniature study scenario for the runner/merge/summary tests.

Deterministic per seed, fast (well under 100 ms per cell), and
self-contained: a seeded request generator feeding a metrics registry,
scraped into a TSDB, with one ratio SLO evaluated over it and a small
synthetic fault log — every artifact kind the study machinery merges,
without dragging in the full chaos world. Addressed from specs as
``tests.experiments.toy:scenario`` (the ``module:callable`` path).
"""

import pathlib

from repro.metrics.counters import MetricsRegistry
from repro.obs.records import write_jsonl
from repro.obs.slo import RatioSli, SloMonitor, SloSpec
from repro.obs.timeseries import TimeSeriesDB
from repro.sim.engine import Simulator

SIM_SECONDS = 20.0
TICK = 0.1


def scenario(seed, params, out_dir):
    out_dir = pathlib.Path(out_dir)
    fail_bias = float(params.get("fail_bias", 0.1))
    sim = Simulator(seed=seed)
    rng = sim.rng.stream("toy.requests")
    registry = MetricsRegistry(namespace="app")
    reqs = registry.counter("reqs_total", "requests served")
    fails = registry.counter("reqs_failed", "requests failed")

    def tick():
        reqs.inc()
        if rng.random() < fail_bias:
            fails.inc()
        if sim.now + TICK <= SIM_SECONDS:
            sim.schedule(TICK, tick, label="toy.tick")

    sim.schedule(TICK, tick, label="toy.tick")

    tsdb = TimeSeriesDB(sim, interval=0.5)
    tsdb.add_registry(registry, source="svc")
    monitor = SloMonitor(sim, tsdb, [SloSpec(
        name="toy-availability", service="toy", objective=0.75,
        sli=RatioSli(total=("svc/app.reqs_total",),
                     bad=("svc/app.reqs_failed",)))], interval=1.0)
    tsdb.start()
    monitor.start()
    sim.run_until(SIM_SECONDS)
    monitor.finish()

    tsdb.export_jsonl(str(out_dir / "tsdb.jsonl"))
    monitor.export_jsonl(str(out_dir / "slo.jsonl"))
    fault_rng = sim.rng.stream("toy.faults")
    write_jsonl(str(out_dir / "faults.jsonl"),
                [{"t": round(2.0 + 5.0 * i + fault_rng.random(), 9),
                  "event": "toy_fault", "target": f"node{i}"}
                 for i in range(3)])
    return {"reqs": int(reqs.value), "failed": int(fails.value)}


def broken_scenario(seed, params, out_dir):
    """Always raises — exercises the error-manifest path."""
    raise RuntimeError(f"scenario exploded for seed {seed}")
