"""Sim-time TSDB: series semantics, scraping, downsampling, export."""

import json

import pytest

from repro.metrics.counters import MetricsRegistry
from repro.obs.rollup import RollupCohort
from repro.obs.timeseries import Series, TimeSeriesDB, load_jsonl
from repro.sim.engine import Simulator


class TestSeries:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown kind"):
            Series("x", "histogram")

    def test_window_inclusive_both_ends(self):
        s = Series("x", "gauge")
        for t in range(10):
            s.append(float(t), float(t), max_points=64)
        assert s.window(2.0, 5.0) == [(2.0, 2.0), (3.0, 3.0),
                                      (4.0, 4.0), (5.0, 5.0)]
        assert s.window(20.0, 30.0) == []
        assert s.window(5.0, 2.0) == []

    def test_value_at_step_interpolation(self):
        s = Series("x", "gauge")
        s.append(1.0, 10.0, 64)
        s.append(3.0, 30.0, 64)
        assert s.value_at(0.5) is None
        assert s.value_at(1.0) == 10.0
        assert s.value_at(2.9) == 10.0
        assert s.value_at(3.0) == 30.0
        assert s.value_at(99.0) == 30.0

    def test_counter_delta_uses_pre_window_baseline(self):
        s = Series("c", "counter")
        s.append(0.0, 5.0, 64)
        s.append(1.0, 8.0, 64)
        s.append(2.0, 9.0, 64)
        # Baseline is the value at the window start, so the increment
        # that landed just inside the window still counts.
        assert s.delta(0.0, 2.0) == 4.0
        assert s.delta(0.5, 2.0) == 4.0
        assert s.delta(1.5, 2.0) == 1.0
        assert s.delta(5.0, 9.0) == 0.0

    def test_delta_without_baseline_uses_first_point(self):
        s = Series("c", "counter")
        s.append(10.0, 3.0, 64)
        s.append(11.0, 7.0, 64)
        assert s.delta(9.0, 12.0) == 4.0

    def test_delta_on_gauge_rejected(self):
        s = Series("g", "gauge")
        with pytest.raises(ValueError, match="delta"):
            s.delta(0.0, 1.0)

    def test_rate(self):
        s = Series("c", "counter")
        s.append(0.0, 0.0, 64)
        s.append(10.0, 40.0, 64)
        assert s.rate(0.0, 10.0) == pytest.approx(4.0)
        assert s.rate(5.0, 5.0) == 0.0

    def test_downsample_counter_keeps_later_value(self):
        s = Series("c", "counter")
        for t in range(5):
            s.append(float(t), float(t * 10), max_points=4)
        # Overflow at the 5th append collapsed the first two pairs.
        assert s.points == [(1.0, 10.0), (3.0, 30.0), (4.0, 40.0)]
        assert s.resolution == 2

    def test_downsample_gauge_averages_pairs(self):
        s = Series("g", "gauge")
        for t, v in enumerate([2.0, 4.0, 10.0, 20.0, 7.0]):
            s.append(float(t), v, max_points=4)
        assert s.points == [(1.0, 3.0), (3.0, 15.0), (4.0, 7.0)]
        assert s.resolution == 2

    def test_bounded_forever(self):
        s = Series("g", "gauge")
        for t in range(10_000):
            s.append(float(t), float(t % 7), max_points=16)
        assert len(s.points) <= 16
        assert s.resolution > 1
        # The series still spans the whole run.
        assert s.points[-1][0] == 9999.0


class TestTimeSeriesDB:
    def make_db(self, interval=1.0, **kwargs):
        sim = Simulator(seed=3)
        db = TimeSeriesDB(sim, interval=interval, **kwargs)
        return sim, db

    def test_rejects_bad_config(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="interval"):
            TimeSeriesDB(sim, interval=0.0)
        with pytest.raises(ValueError, match="kind"):
            TimeSeriesDB(sim).add_callback("x", lambda: 0.0, kind="nope")

    def test_scrapes_registry_with_source_prefix(self):
        sim, db = self.make_db()
        reg = MetricsRegistry(namespace="svc")
        reg.counter("requests", "").inc(5)
        reg.gauge("depth", "").set(2.0)
        db.add_registry(reg, source="h0")
        db.scrape()
        assert db.latest("h0/svc.requests") == 5.0
        assert db.get("h0/svc.requests").kind == "counter"
        assert db.get("h0/svc.depth").kind == "gauge"

    def test_histogram_becomes_count_sum_and_quantiles(self):
        sim, db = self.make_db()
        reg = MetricsRegistry(namespace="svc")
        hist = reg.histogram("lat_seconds", "")
        for v in (0.1, 0.2, 0.9):
            hist.observe(v)
        db.add_registry(reg)
        db.scrape()
        assert db.latest("svc.lat_seconds_count") == 3.0
        assert db.latest("svc.lat_seconds_sum") == pytest.approx(1.2)
        assert db.get("svc.lat_seconds_p50").kind == "gauge"
        assert db.latest("svc.lat_seconds_p50") == pytest.approx(0.2)
        assert db.latest("svc.lat_seconds_p99") == pytest.approx(0.886)

    def test_rollup_cohort_scraped_every_nth_tick(self):
        sim, db = self.make_db()
        cohort = RollupCohort("n0", 1, (("home.reqs", "counter"),), every=2)
        db.add_rollup(cohort)
        rows = []
        for _ in range(5):
            cohort.inc(0, 0, 1.0)
            db.scrape()
            rows.append(db.last_scrape_rows)
        # Scrapes 0, 2 and 4 fold the cohort; 1 and 3 skip it whole.
        assert [n > 0 for n in rows] == [True, False, True, False, True]
        series = db.get("cohort:n0/home.reqs")
        assert [value for _t, value in series.points] == [1.0, 3.0, 5.0]

    def test_weak_scrape_cadence_does_not_block_quiescence(self):
        sim, db = self.make_db(interval=0.5)
        reg = MetricsRegistry(namespace="n")
        counter = reg.counter("ticks", "")
        db.add_registry(reg).start()
        # Strong work for 3 sim-seconds; scrapes ride along weakly.
        for i in range(6):
            sim.schedule(0.5 * (i + 1), counter.inc, label="work")
        sim.run()
        assert sim.now == pytest.approx(3.0)  # run() reached quiescence
        assert db.scrapes >= 6
        # The weak scrape tied with the *last* strong event never fires
        # (quiescence wins), so the final sample trails by one tick.
        assert db.latest("n.ticks") == 5.0

    def test_stop_halts_scraping(self):
        sim, db = self.make_db(interval=0.5)
        db.add_callback("v", lambda: 1.0).start()
        sim.schedule(5.0, lambda: db.stop(), label="stopper")
        sim.schedule(10.0, lambda: None, label="late")
        sim.run()
        assert db.get("v").points[-1][0] <= 5.0

    def test_get_unknown_raises_keyerror(self):
        _sim, db = self.make_db()
        with pytest.raises(KeyError, match="no series"):
            db.get("nope")

    def test_names_filter_and_sum_delta(self):
        sim, db = self.make_db()
        a = MetricsRegistry(namespace="a")
        b = MetricsRegistry(namespace="b")
        ca, cb = a.counter("errs", ""), b.counter("errs", "")
        db.add_registry(a).add_registry(b)
        db.scrape()
        sim.now = 1.0
        ca.inc(2)
        cb.inc(3)
        db.scrape()
        assert db.names("errs") == ["a.errs", "b.errs"]
        assert db.sum_delta(["a.errs", "b.errs", "missing"], 1.0) == 5.0

    def test_export_sorted_and_deterministic(self, tmp_path):
        def one_run(path):
            sim, db = self.make_db(interval=0.25)
            reg = MetricsRegistry(namespace="m")
            counter = reg.counter("events", "")
            db.add_registry(reg, source="s").start()
            for i in range(8):
                sim.schedule(0.3 * (i + 1), counter.inc, label="work")
            sim.run()
            db.export_jsonl(str(path))

        one_run(tmp_path / "a.jsonl")
        one_run(tmp_path / "b.jsonl")
        blob = (tmp_path / "a.jsonl").read_bytes()
        assert blob == (tmp_path / "b.jsonl").read_bytes()
        names = [json.loads(line)["name"]
                 for line in blob.decode().splitlines()]
        assert names == sorted(names)

    def test_load_jsonl_roundtrip(self, tmp_path):
        sim, db = self.make_db()
        db.add_callback("depth", lambda: sim.now * 2, kind="gauge")
        for t in (0.0, 1.0, 2.0):
            sim.now = t
            db.scrape()
        path = tmp_path / "tsdb.jsonl"
        db.export_jsonl(str(path))
        loaded = load_jsonl(str(path))
        assert set(loaded) == {"depth"}
        assert loaded["depth"].kind == "gauge"
        assert loaded["depth"].points == db.get("depth").points
