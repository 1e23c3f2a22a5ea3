"""Fleet-scale background aggregation: correctness and determinism."""

import gc
import hashlib
import random
import statistics
import tracemalloc
from types import SimpleNamespace

import pytest

from repro.faults import FaultInjector, FaultPlan, LinkFlap
from repro.obs.timeseries import TimeSeriesDB
from repro.sim.engine import Simulator
from repro.workloads.fleet import (
    FleetSpec,
    FocusRequestLoad,
    build_fleet,
)
from repro.workloads.traffic import HouseholdProfile


class TestBuildFleet:
    def test_hollow_build_is_small(self):
        """Memory scales with neighborhoods + focus homes, not homes."""
        sim = Simulator(seed=1)
        fleet = build_fleet(sim, FleetSpec(num_homes=50_000, focus_homes=3))
        assert fleet.idle_homes == 49_997
        assert len(fleet.focus) == 3
        assert len(fleet.aggregates) == 50
        # 50 agg routers + 3 homes' worth of nodes + core + origin site.
        assert len(fleet.city.network.nodes) < 80

    @pytest.mark.parametrize("homes, sim_seconds, events, nodes", [
        (1_000, 600.0, 599, 21),
        (10_000, 600.0, 5_995, 30),
        (100_000, 300.0, 29_954, 120),
    ])
    def test_events_and_nodes_grow_with_neighborhoods_not_homes(
            self, homes, sim_seconds, events, nodes):
        """The fleet engine's scale contract, exactly: one tick event
        per neighbourhood per sim-second and one aggregation router per
        neighbourhood, whatever the home count (a bare 100k-home fleet
        is 120 nodes — the floor fleet telemetry's memory sits on)."""
        sim = Simulator(seed=42)
        fleet = build_fleet(sim, FleetSpec(num_homes=homes,
                                           focus_homes=5)).start()
        sim.run_until(sim_seconds)
        assert sim.events_fired == events
        assert len(fleet.city.network.nodes) == nodes

    def test_focus_homes_are_fully_built(self):
        sim = Simulator(seed=1)
        fleet = build_fleet(sim, FleetSpec(num_homes=2_000, focus_homes=4,
                                           devices_per_focus_home=2))
        for home in fleet.focus:
            assert len(home.devices) == 2
            assert home.hpop_host is not None
            assert home.access_link.up

    def test_registry_reports_shape(self):
        sim = Simulator(seed=1)
        fleet = build_fleet(sim, FleetSpec(num_homes=3_000, focus_homes=1))
        snap = fleet.registry.snapshot()
        assert snap["fleet.homes_total"] == 3_000
        assert snap["fleet.homes_focus"] == 1
        assert snap["fleet.neighborhoods"] == 3

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            FleetSpec(num_homes=0)
        with pytest.raises(ValueError):
            FleetSpec(num_homes=10, focus_homes=11)
        with pytest.raises(ValueError):
            FleetSpec(num_homes=10, tick=0)


class TestAggregation:
    def test_aggregate_bytes_near_analytic_mean(self):
        sim = Simulator(seed=3)
        spec = FleetSpec(num_homes=5_000, focus_homes=0)
        fleet = build_fleet(sim, spec).start()
        sim.run_until(200.0)
        mean_down, mean_up = spec.profile.mean_rates()
        down = sum(a.uplink.reverse.stats.bytes_carried
                   for a in fleet.aggregates)
        up = sum(a.uplink.forward.stats.bytes_carried
                 for a in fleet.aggregates)
        # Gamma(n, m) concentrates hard at n=1000 homes/cohort: 2% slack
        # covers the partial first/last ticks plus sampling noise.
        assert down == pytest.approx(5_000 * mean_down * 200 / 8, rel=0.02)
        assert up == pytest.approx(5_000 * mean_up * 200 / 8, rel=0.02)

    def test_aggregate_matches_naive_mode_statistically(self):
        """The tentpole equivalence: one cohort draw per tick has the
        distribution of what it replaces — n homes each contributing an
        exponential byte count with per-tick mean m, i.e. Gamma(n, m):
        mean n*m, variance n*m**2. Totals are compared in units of m
        (a tick's m follows its jittered span)."""
        n, ticks = 400, 1_000
        sim = Simulator(seed=7)
        spec = FleetSpec(num_homes=n, focus_homes=0, homes_per_neighborhood=n)
        [aggregate] = build_fleet(sim, spec).start().aggregates
        carried = aggregate.uplink.forward.stats
        up_bytes_per_s = spec.profile.mean_rates()[1] / 8
        totals = []
        for _ in range(ticks):
            before, last = carried.bytes_carried, sim.now
            assert sim.step()
            totals.append((carried.bytes_carried - before)
                          / (up_bytes_per_s * (sim.now - last)))
        # One event per tick did it, where the naive mode fires n.
        assert sim.events_fired == ticks

        # The naive mode, from its definition: n per-home draws a tick.
        rng = random.Random(7)
        naive = [sum(rng.expovariate(1.0) for _ in range(n))
                 for _ in range(ticks)]

        # Standard errors over 1,000 ticks: mean n/sqrt(n*ticks) = 0.16 %,
        # variance n*sqrt(2/ticks) = 4.5 %.
        for sample in (totals, naive):
            assert statistics.fmean(sample) == pytest.approx(n, rel=0.01)
            assert statistics.variance(sample) == pytest.approx(n, rel=0.2)

    def test_background_is_weak(self):
        """Aggregation ticks must not keep run() from quiescence."""
        sim = Simulator(seed=2)
        build_fleet(sim, FleetSpec(num_homes=1_000, focus_homes=0)).start()
        fired = sim.run()
        assert fired == 0

    def test_stop_halts_ticks(self):
        sim = Simulator(seed=2)
        fleet = build_fleet(sim, FleetSpec(num_homes=1_000,
                                           focus_homes=0)).start()
        sim.run_until(10.0)
        carried = fleet.aggregates[0].uplink.forward.stats.bytes_carried
        fleet.stop()
        sim.run_until(50.0)
        assert (fleet.aggregates[0].uplink.forward.stats.bytes_carried
                == carried)


class TestDeterminism:
    def run_once(self, seed):
        sim = Simulator(seed=seed)
        fleet = build_fleet(sim, FleetSpec(num_homes=4_000,
                                           focus_homes=2)).start()
        sim.run_until(60.0)
        return (sim.events_fired,
                tuple(a.uplink.forward.stats.bytes_carried
                      for a in fleet.aggregates),
                tuple(tuple(a.uplink.forward.utilization_series())
                      for a in fleet.aggregates))

    def test_same_seed_same_run(self):
        assert self.run_once(9) == self.run_once(9)

    def test_different_seed_differs(self):
        assert self.run_once(9)[1] != self.run_once(10)[1]


class TestMeanRates:
    def test_mean_rates_match_generated_traffic(self):
        """The analytic means must agree with the event generator they
        summarize (law of large numbers over a long horizon)."""
        import random

        from repro.workloads.traffic import HouseholdTrafficModel

        profile = HouseholdProfile.typical()
        mean_down, mean_up = profile.mean_rates()
        duration = 400 * 3600.0
        model = HouseholdTrafficModel(profile, random.Random(123))
        down = up = 0.0
        for event in model.generate(duration):
            if event.direction == "down":
                down += event.nbytes
            else:
                up += event.nbytes
        assert down * 8 / duration == pytest.approx(mean_down, rel=0.1)
        assert up * 8 / duration == pytest.approx(mean_up, rel=0.1)

    def test_heavy_profile_is_heavier(self):
        td, tu = HouseholdProfile.typical().mean_rates()
        hd, hu = HouseholdProfile.heavy().mean_rates()
        assert hd > 3 * td
        assert hu > 3 * tu


GOVERNED_HOMES = 3_000


def run_governed_fleet(out_dir, tag):
    """A fleet under the governed observability stack, one seeded run:
    per-home registries folded into cohort rollups scraped every other
    tick, lite tracing with 2% tail sampling, a focus-home request load
    and a link flap that outlasts the request timeout (a shorter stall
    just resumes on restore instead of erroring)."""
    sim = Simulator(seed=23)
    fleet = build_fleet(sim, FleetSpec(
        num_homes=GOVERNED_HOMES, focus_homes=4, tick=0.5,
        per_home_metrics=True, home_metrics_churn=8, rollup_k=4,
        rollup_every=2))
    load = FocusRequestLoad(fleet, requests=150, spacing=0.08, timeout=1.5,
                            slow_every=25, slow_delay=1.0, peer_every=10)
    FaultInjector(sim, fleet.city.network).apply(
        FaultPlan([LinkFlap("hpop-n0h1", at=4.0, duration=6.0)]))
    tracer = sim.enable_tracing(capacity=262_144, trace_events=False)
    sampler = tracer.enable_tail_sampling(rate=0.02, slow_threshold=0.8,
                                          grace=30.0)
    tsdb = TimeSeriesDB(sim, interval=2.0)
    tsdb.add_registry(fleet.registry, source="fleet")
    tsdb.add_registry(load.metrics, source="focusload")
    fleet.attach_rollups(tsdb)
    tsdb.start()
    fleet.start()
    load.start()
    sim.run_until(20.0)
    fleet.stop()
    tracer.export_jsonl(str(out_dir / f"{tag}-trace.jsonl"))  # flushes
    tsdb.export_jsonl(str(out_dir / f"{tag}-tsdb.jsonl"))
    return SimpleNamespace(out_dir=out_dir, fleet=fleet, load=load,
                           sampler=sampler, tsdb=tsdb)


class TestGovernedFleet:
    """What the cardinality governor and the tail sampler promise at
    fleet scale, on a fleet small enough for every test run (the 100k
    instance is pinned by the platform benchmark's ``fleet_obs_100k``
    digest and ``BENCH_obs.json``)."""

    @pytest.fixture(scope="class")
    def governed(self, tmp_path_factory):
        out_dir = tmp_path_factory.mktemp("governed")
        run = run_governed_fleet(out_dir, "a")
        run_governed_fleet(out_dir, "b")
        return run

    @pytest.mark.parametrize("kind", ["trace", "tsdb"])
    def test_same_seed_exports_byte_identical(self, governed, kind):
        blob = (governed.out_dir / f"a-{kind}.jsonl").read_bytes()
        assert blob
        assert blob == (governed.out_dir / f"b-{kind}.jsonl").read_bytes()

    def test_sampler_thins_but_keeps_every_error_and_fault(self, governed):
        load, sampler = governed.load, governed.sampler
        assert load.results
        assert load.errors, "the flap produced no request errors"
        kept = sampler.kept_spans()
        error_traces = {
            span.trace_id for span in kept
            if any(span.attrs.get(k) for k in ("error", "timeout", "failed"))}
        assert len(error_traces) >= len(load.errors)
        # ... and kept for being errors: a timed-out request is slow
        # too, which must not be what saves it.
        assert sampler.kept_by_reason["error"] >= len(load.errors)
        assert any(span.name.startswith("fault.") for span in kept)
        assert 0 < sampler.traces_kept < sampler.traces_seen

    def test_rows_per_scrape_far_below_one_series_per_home(self, governed):
        # O(focus + cohorts * metrics + k), not homes * metrics.
        assert 0 < governed.tsdb.last_scrape_rows * 50 < GOVERNED_HOMES * 4

    def test_cohort_totals_equal_the_sum_over_their_homes(self, governed):
        """Conservation: a bump the pool did not mark dirty would be
        missing from the cohort row for good."""
        assert len(governed.fleet.pools) == 3
        for pool in governed.fleet.pools:
            cohort = pool.cohort
            rows = {name: value
                    for name, _kind, value in cohort.scrape_rows()}
            for (metric, kind), column in zip(cohort.schema,
                                              cohort.columns):
                assert len(column) == pool.num_homes
                mean = 1 if kind == "counter" else pool.num_homes
                assert rows[f"cohort:{cohort.name}/{metric}"] \
                    == sum(column) / mean


def run_bench_obs_shaped_fleet(path):
    """``scripts/bench_obs.py``'s fleet shape at 5k homes: fast ticks, a
    32-home churn slice that rotates every 200 ticks, top-4 sketches and
    a cohort fold every 8th scrape. The TSDB starts after two pool
    ticks, so the first fold already sees bumped homes."""
    sim = Simulator(seed=42)
    fleet = build_fleet(sim, FleetSpec(
        num_homes=5_000, focus_homes=4, tick=0.2, per_home_metrics=True,
        home_metrics_hot=2, home_metrics_churn=32, home_metrics_rotate=200,
        rollup_k=4, rollup_every=8))
    tsdb = TimeSeriesDB(sim, interval=1.0)
    tsdb.add_registry(fleet.registry, source="fleet")
    fleet.attach_rollups(tsdb)
    fleet.start()
    sim.run_until(0.5)
    tsdb.start()
    sim.run_until(56.5)       # the last scrape folds the cohorts
    fleet.stop()
    tsdb.export_jsonl(str(path))
    return tsdb


# (sha256 of the TSDB export, rows in the last scrape, series), as the
# per-home registries produced them before telemetry went columnar.
PINNED_EXPORTS = {
    "governed": ("f84de3caae021f80e5908a985a31a45b"
                 "3358df23a6c35377404cce4cc2e49230", 62, 134),
    "bench-obs-shape": ("826a9de495f84fa14b00b1d131a58492"
                        "f434871b6a041084c8ee32e4d4e3e0d9", 90, 120),
}


@pytest.mark.parametrize("shape", sorted(PINNED_EXPORTS))
def test_governed_tsdb_export_is_pinned(tmp_path, shape):
    """Exact, across processes: a byte of the rollup rows, the top-k
    rows or the sketch's eviction order that moves changes the digest."""
    if shape == "governed":
        tsdb = run_governed_fleet(tmp_path, "pin").tsdb
        path = tmp_path / "pin-tsdb.jsonl"
    else:
        path = tmp_path / "tsdb.jsonl"
        tsdb = run_bench_obs_shaped_fleet(path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert (digest, tsdb.last_scrape_rows, len(tsdb.series)) \
        == PINNED_EXPORTS[shape]


def governed_blocks(homes_per_cohort):
    """tracemalloc blocks alive after building a two-cohort governed
    fleet and taking its first scrape."""
    gc.collect()
    tracemalloc.start()
    try:
        sim = Simulator(seed=1)
        fleet = build_fleet(sim, FleetSpec(
            num_homes=2 * homes_per_cohort,
            homes_per_neighborhood=homes_per_cohort, per_home_metrics=True))
        tsdb = TimeSeriesDB(sim)
        fleet.attach_rollups(tsdb)
        tsdb.start()
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
        assert len(fleet.pools) == 2
        return sum(stat.count for stat in snapshot.statistics("filename"))
    finally:
        tracemalloc.stop()


def test_per_home_telemetry_allocates_no_objects_per_home():
    """Counts, not timings: a home is a slot in its cohort's columns, so
    doubling the homes per cohort adds no Python objects (per-home
    registries held about 36 blocks a home)."""
    governed_blocks(50)       # one-time imports, caches and interning
    assert governed_blocks(2_000) - governed_blocks(1_000) < 100
