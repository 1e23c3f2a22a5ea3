#!/usr/bin/env python3
"""Telemetry smoke stage for scripts/check.sh (``make check``).

1. Runs a small seeded end-to-end scenario (attic PUT + WAN GET) with
   the TSDB scraper attached, twice, and asserts the exports are
   byte-identical — the determinism contract of the telemetry layer.
2. Asserts the scrape actually produced counter *and* gauge series
   with multiple points (an empty TSDB would also be byte-identical).
3. Times a dense event spin on a simulator that never had the profiler
   against one where profiling was enabled and then disabled, and
   fails if the disabled path costs more than 5% — enabling the
   profiler must be free once it is off again. Detaching it puts the
   engine back on its uninstrumented dispatcher (a unit test asserts
   that), so the two loops are the same code and this is an end-to-end
   check that nothing else lingers.
4. Runs a 10k-home fleet (analytic background aggregation, scraped
   TSDB) twice from the same seed and asserts the exports are
   byte-identical — the determinism contract at fleet scale, covering
   the cached scrape path and the gamma-draw aggregation.
5. Runs a 100k-home fleet under the *governed* observability stack —
   per-home registries folded into cohort rollups, lite tracing with
   tail sampling, TSDB + SLO monitor — twice from one seed, and
   asserts: byte-identical trace/TSDB/SLO exports, a per-scrape row
   count orders of magnitude below the naive per-home-series count
   (the cardinality governor's O(focus + cohorts + k) contract), and
   that every error trace and every ``fault.*`` span survived the 2%
   tail sampler.

Exit code 0 on success; raises on any violation.
"""

import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.attic.service import DataAtticService  # noqa: E402
from repro.hpop.core import Household, Hpop, User  # noqa: E402
from repro.http.client import HttpClient  # noqa: E402
from repro.http.messages import HttpRequest  # noqa: E402
from repro.net.topology import build_city  # noqa: E402
from repro.obs.timeseries import TimeSeriesDB  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402
from repro.util.units import kib  # noqa: E402

DISABLED_OVERHEAD_BUDGET = 1.05
SPIN_EVENTS = 20_000


def run_scraped_sim(path: str) -> TimeSeriesDB:
    """The quickstart flow (PUT from home, GET from the WAN), scraped."""
    sim = Simulator(seed=7)
    city = build_city(sim, homes_per_neighborhood=4,
                      server_sites={"coffee-shop": 1})
    home = city.neighborhoods[0].homes[0]
    household = Household(name="smoke", users=[
        User(name="ann", password="pw", devices=[home.devices[0]])])
    hpop = Hpop(home.hpop_host, city.network, household)
    hpop.install(DataAtticService())
    hpop.start()

    inside = HttpClient(home.devices[0], city.network)
    tsdb = TimeSeriesDB(sim, interval=0.01)
    tsdb.add_registry(city.network.metrics, source="net")
    tsdb.add_registry(inside.metrics, source="client")
    tsdb.start()

    from repro.webdav.server import basic_auth
    headers = basic_auth("ann", "pw")
    statuses = []

    inside.request(hpop.host,
                   HttpRequest("PUT", "/attic/ann/notes.txt",
                               headers=headers, body="smoke",
                               body_size=kib(64)),
                   lambda resp, stats: statuses.append(resp.status),
                   port=443)
    sim.run()

    laptop = city.server_sites["coffee-shop"].servers[0]
    outside = HttpClient(laptop, city.network)
    outside.request(hpop.host,
                    HttpRequest("GET", "/attic/ann/notes.txt",
                                headers=headers),
                    lambda resp, stats: statuses.append(resp.status),
                    port=443)
    sim.run()

    assert statuses == [201, 200], f"smoke sim failed: {statuses}"
    tsdb.export_jsonl(path)
    return tsdb


def check_determinism() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        a = os.path.join(tmp, "a.jsonl")
        b = os.path.join(tmp, "b.jsonl")
        tsdb = run_scraped_sim(a)
        run_scraped_sim(b)
        with open(a, "rb") as fa, open(b, "rb") as fb:
            blob_a, blob_b = fa.read(), fb.read()
    assert blob_a, "empty TSDB export"
    assert blob_a == blob_b, "same-seed TSDB exports are not byte-identical"
    kinds = {s.kind for s in tsdb.series.values()}
    assert kinds == {"counter", "gauge"}, f"missing series kinds: {kinds}"
    multi = [s for s in tsdb.series.values() if len(s.points) > 3]
    assert multi, "no series collected more than 3 points"
    print(f"  determinism OK ({len(blob_a)} bytes, {len(tsdb.series)} "
          f"series, {tsdb.scrapes} scrapes, byte-identical)")


def spin(sim: Simulator, events: int) -> float:
    """Wall time to fire ``events`` small self-rescheduling callbacks."""
    fired = {"n": 0}

    def tick() -> None:
        fired["n"] += 1
        sum(range(50))  # a smidgen of real work per event
        if fired["n"] < events:
            sim.schedule(0.001, tick, label="spin.tick")

    sim.schedule(0.001, tick, label="spin.tick")
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    assert fired["n"] == events
    return elapsed


def check_disabled_overhead() -> None:
    base = float("inf")
    disabled = float("inf")
    for _ in range(5):
        never = Simulator(seed=1)
        base = min(base, spin(never, SPIN_EVENTS))

        toggled = Simulator(seed=1)
        toggled.enable_profiling()
        toggled.disable_profiling()
        disabled = min(disabled, spin(toggled, SPIN_EVENTS))

    ratio = disabled / base if base > 0 else 1.0
    print(f"  disabled-profiler overhead OK (never-enabled "
          f"{base * 1e3:.1f} ms, enabled-then-disabled "
          f"{disabled * 1e3:.1f} ms, ratio {ratio:.3f})")
    assert ratio <= DISABLED_OVERHEAD_BUDGET, (
        f"disabled profiler costs {ratio:.3f}x, "
        f"budget {DISABLED_OVERHEAD_BUDGET}x")


FLEET_HOMES = 10_000
FLEET_SIM_SECONDS = 60.0


def run_fleet_sim(path: str) -> "TimeSeriesDB":
    from repro.workloads.fleet import FleetSpec, build_fleet
    sim = Simulator(seed=11)
    fleet = build_fleet(sim, FleetSpec(num_homes=FLEET_HOMES, focus_homes=2))
    tsdb = TimeSeriesDB(sim, interval=1.0)
    tsdb.add_registry(fleet.registry, source="fleet")
    tsdb.add_callback(
        "uplink0.up_bytes",
        lambda: fleet.aggregates[0].uplink.forward.stats.bytes_carried,
        kind="counter")
    fleet.start()
    tsdb.start()
    sim.run_until(FLEET_SIM_SECONDS)
    tsdb.export_jsonl(path)
    return tsdb


def check_fleet_determinism() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        a = os.path.join(tmp, "fleet-a.jsonl")
        b = os.path.join(tmp, "fleet-b.jsonl")
        tsdb = run_fleet_sim(a)
        run_fleet_sim(b)
        with open(a, "rb") as fa, open(b, "rb") as fb:
            blob_a, blob_b = fa.read(), fb.read()
    assert blob_a, "empty fleet TSDB export"
    assert blob_a == blob_b, (
        f"same-seed {FLEET_HOMES}-home fleet exports are not byte-identical")
    up = tsdb.latest("uplink0.up_bytes")
    assert up and up > 0, "fleet background carried no upstream bytes"
    print(f"  fleet determinism OK ({FLEET_HOMES} homes, {len(blob_a)} "
          f"bytes, {tsdb.scrapes} scrapes, byte-identical)")


GOVERNED_HOMES = 100_000
GOVERNED_SIM_SECONDS = 20.0


def run_governed_fleet(prefix: str) -> dict:
    """100k homes, full governed observability stack, one seeded run."""
    from repro.faults import FaultInjector, FaultPlan, LinkFlap
    from repro.workloads.fleet import (FleetSpec, FocusRequestLoad,
                                       build_fleet)

    sim = Simulator(seed=23)
    fleet = build_fleet(sim, FleetSpec(
        num_homes=GOVERNED_HOMES, focus_homes=4, tick=0.5,
        per_home_metrics=True, home_metrics_churn=8, rollup_k=4,
        rollup_every=2))
    # The flap must outlast the request timeout: a downed link stalls
    # in-flight transfers, and a stall shorter than the timeout just
    # resumes on restore instead of erroring.
    load = FocusRequestLoad(fleet, requests=150, spacing=0.08, timeout=1.5,
                            slow_every=25, slow_delay=1.0, peer_every=10)
    injector = FaultInjector(sim, fleet.city.network)
    injector.apply(FaultPlan([LinkFlap("hpop-n0h1", at=4.0, duration=6.0)]))

    tracer = sim.enable_tracing(capacity=262_144, trace_events=False,
                                profile_events=False)
    sampler = tracer.enable_tail_sampling(rate=0.02, slow_threshold=0.8,
                                          grace=30.0)
    tsdb = TimeSeriesDB(sim, interval=2.0)
    tsdb.add_registry(fleet.registry, source="fleet")
    tsdb.add_registry(load.metrics, source="focusload")
    fleet.attach_rollups(tsdb)
    tsdb.start()

    fleet.start()
    load.start()
    sim.run_until(GOVERNED_SIM_SECONDS)
    fleet.stop()

    tracer.export_jsonl(prefix + "-trace.jsonl")  # flushes the sampler
    tsdb.export_jsonl(prefix + "-tsdb.jsonl")

    kept = sampler.kept_spans()
    error_traces = {
        span.trace_id for span in kept
        if getattr(span, "attrs", None)
        and any(span.attrs.get(k) for k in ("error", "timeout", "failed"))}
    return {
        "errors": len(load.errors),
        "ok": len(load.results),
        "error_traces_kept": len(error_traces),
        "fault_spans_kept": sum(
            1 for span in kept
            if getattr(span, "name", "").startswith("fault.")),
        "traces_seen": sampler.traces_seen,
        "traces_kept": sampler.traces_kept,
        "scrape_rows": tsdb.last_scrape_rows,
        "series": len(tsdb.series),
    }


def check_governed_fleet() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        facts = run_governed_fleet(os.path.join(tmp, "a"))
        run_governed_fleet(os.path.join(tmp, "b"))
        blobs = {}
        for kind in ("trace", "tsdb"):
            pair = []
            for run in ("a", "b"):
                with open(os.path.join(tmp, f"{run}-{kind}.jsonl"),
                          "rb") as fh:
                    pair.append(fh.read())
            assert pair[0], f"empty governed {kind} export"
            assert pair[0] == pair[1], (
                f"same-seed governed {kind} exports are not byte-identical")
            blobs[kind] = pair[0]

    assert facts["ok"] > 0, "governed fleet request load never completed"
    assert facts["errors"] > 0, (
        "the link flap produced no request errors — retention unexercised")
    assert facts["error_traces_kept"] >= facts["errors"], (
        f"sampler dropped error traces: kept {facts['error_traces_kept']} "
        f"of {facts['errors']}")
    assert facts["fault_spans_kept"] > 0, "fault.* spans were sampled away"
    assert 0 < facts["traces_kept"] < facts["traces_seen"], (
        f"sampling did not thin the trace stream: {facts}")
    # The cardinality governor's whole point: per-scrape row count is
    # O(focus + cohorts * metrics + k), orders below one series per
    # home metric.
    naive_rows = GOVERNED_HOMES * 4
    assert 0 < facts["scrape_rows"] * 50 < naive_rows, (
        f"{facts['scrape_rows']} rows/scrape is not governed "
        f"(naive would be ~{naive_rows})")
    print(f"  governed fleet OK ({GOVERNED_HOMES} homes, "
          f"{facts['traces_kept']}/{facts['traces_seen']} traces kept, "
          f"{facts['errors']} errors all retained, "
          f"{facts['scrape_rows']} rows/scrape vs ~{naive_rows} naive, "
          f"byte-identical)")


def check_enabled_profile() -> None:
    """Sanity (no budget): an enabled profiler sees every event."""
    sim = Simulator(seed=2)
    profiler = sim.enable_profiling()
    spin(sim, 2_000)
    assert profiler.events == 2_000
    assert profiler.stats["spin.tick"].count == 2_000
    assert profiler.wall_seconds > 0
    assert profiler.collapsed_stacks()
    print(f"  profiler attribution OK ({profiler.events} events, "
          f"{profiler.events_per_second:,.0f} events/s, "
          f"wall/sim ratio {profiler.wall_sim_ratio:.4f})")


def main() -> int:
    print("obs smoke: TSDB same-seed determinism")
    check_determinism()
    print("obs smoke: disabled-profiler overhead")
    check_disabled_overhead()
    print("obs smoke: enabled-profiler attribution")
    check_enabled_profile()
    print(f"obs smoke: {FLEET_HOMES}-home fleet same-seed determinism")
    check_fleet_determinism()
    print(f"obs smoke: {GOVERNED_HOMES}-home governed observability")
    check_governed_fleet()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
