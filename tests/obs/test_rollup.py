"""Cardinality governor: space-saving sketch and columnar cohort folds."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.metrics.counters import MetricsRegistry
from repro.obs.rollup import RollupCohort, SpaceSaving

SCHEMA = (("home.reqs", "counter"), ("home.depth", "gauge"))
REQS, DEPTH = 0, 1


def rows_by_name(cohort):
    return {name: value for name, _kind, value in cohort.scrape_rows()}


class TestSpaceSaving:
    def test_tracks_at_most_k(self):
        sketch = SpaceSaving(2)
        for key in ("a", "b", "c", "d"):
            sketch.offer(key)
        assert len(sketch) == 2

    def test_eviction_inherits_floor_as_error(self):
        sketch = SpaceSaving(2)
        sketch.offer("a", 10.0)
        sketch.offer("b", 3.0)
        sketch.offer("c", 1.0)           # evicts b (min), inherits 3
        top = sketch.top()
        assert top[0] == ("a", 10.0, 0.0)
        assert top[1] == ("c", 4.0, 3.0)
        assert "b" not in sketch

    def test_tie_evicts_lexicographically_smallest(self):
        sketch = SpaceSaving(2)
        sketch.offer("beta", 5.0)
        sketch.offer("alpha", 5.0)
        sketch.offer("gamma", 1.0)
        assert "alpha" not in sketch
        assert "beta" in sketch and "gamma" in sketch

    def test_top_sorted_by_count_then_key(self):
        sketch = SpaceSaving(3)
        sketch.offer("x", 2.0)
        sketch.offer("y", 7.0)
        sketch.offer("z", 2.0)
        assert [key for key, _c, _e in sketch.top()] == ["y", "x", "z"]

    def test_nonpositive_weight_ignored(self):
        sketch = SpaceSaving(2)
        sketch.offer("a", 0.0)
        sketch.offer("b", -1.0)
        assert len(sketch) == 0

    def test_k_validation(self):
        with pytest.raises(ValueError):
            SpaceSaving(0)


class TestRollupFold:
    def test_counters_sum_gauges_average(self):
        cohort = RollupCohort("nbhd0", 2, SCHEMA, k=2)
        cohort.inc(REQS, 0, 4.0)
        cohort.inc(REQS, 1, 6.0)
        cohort.set(DEPTH, 0, 2.0)
        cohort.set(DEPTH, 1, 4.0)
        rows = rows_by_name(cohort)
        assert rows["cohort:nbhd0/home.reqs"] == 10.0
        assert rows["cohort:nbhd0/home.depth"] == 3.0
        assert rows["cohort:nbhd0/rollup.members"] == 2.0

    def test_quiet_members_not_rescanned(self):
        cohort = RollupCohort("n", 3, SCHEMA, k=2)
        cohort.scrape_rows()                 # first fold adds every column
        cohort.inc(REQS, 1, 1.0)
        cohort.inc(REQS, 1, 1.0)             # one member, twice
        rows = rows_by_name(cohort)
        assert rows["cohort:n/rollup.changed"] == 1.0
        assert cohort.sketch.top() == [("nh1", 2.0, 0.0)]

    def test_first_fold_is_setup_not_loudness(self):
        cohort = RollupCohort("n", 1, SCHEMA, k=1)
        cohort.inc(REQS, 0, 100.0)           # written before any fold
        assert rows_by_name(cohort)["cohort:n/home.reqs"] == 100.0
        assert len(cohort.sketch) == 0       # registration never offered
        assert rows_by_name(cohort)["cohort:n/rollup.changed"] == 0.0

    def test_loudest_member_gets_per_home_series(self):
        cohort = RollupCohort("n", 2, SCHEMA, k=1)
        cohort.inc(REQS, 0, 1.0)
        cohort.inc(REQS, 1, 1.0)
        cohort.scrape_rows()
        for _ in range(10):
            cohort.inc(REQS, 1, 1.0)
        cohort.inc(REQS, 0, 1.0)
        rows = rows_by_name(cohort)
        assert rows["nh1/home.reqs"] == 11.0
        assert rows["nh1/home.depth"] == 0.0
        assert "nh0/home.reqs" not in rows

    def test_rollup_changed_row_counts_rescans(self):
        cohort = RollupCohort("n", 2, SCHEMA, k=1)
        rows = rows_by_name(cohort)
        assert rows["cohort:n/rollup.changed"] == 2.0
        cohort.inc(REQS, 0, 1.0)
        rows = rows_by_name(cohort)
        assert rows["cohort:n/rollup.changed"] == 1.0

    def test_later_folds_add_value_deltas(self):
        cohort = RollupCohort("n", 2, SCHEMA, k=1)
        cohort.inc(REQS, 0, 3.0)
        cohort.inc(REQS, 1, 5.0)
        cohort.set(DEPTH, 0, 1.0)
        cohort.set(DEPTH, 1, 3.0)
        cohort.scrape_rows()
        cohort.inc(REQS, 0, 7.0)
        cohort.set(DEPTH, 0, 9.0)
        rows = rows_by_name(cohort)
        assert rows["cohort:n/home.reqs"] == 15.0
        assert rows["cohort:n/home.depth"] == 6.0

    def test_top_k_rows_are_fresh(self):
        cohort = RollupCohort("n", 1, SCHEMA, k=1)
        cohort.inc(REQS, 0, 1.0)
        cohort.scrape_rows()
        cohort.inc(REQS, 0, 41.0)
        assert rows_by_name(cohort)["nh0/home.reqs"] == 42.0

    def test_member_rows_keep_schema_order(self):
        cohort = RollupCohort("n", 1, (("b.up", "counter"),
                                       ("a.level", "gauge")), k=1)
        cohort.scrape_rows()
        cohort.inc(0, 0, 2.0)
        names = [name for name, _kind, _value in cohort.scrape_rows()]
        assert names == ["cohort:n/a.level", "cohort:n/b.up",
                         "cohort:n/rollup.members", "cohort:n/rollup.changed",
                         "nh0/b.up", "nh0/a.level"]

    def test_writes_keep_counters_monotone(self):
        cohort = RollupCohort("n", 1, SCHEMA)
        cohort.inc(REQS, 0, 5.0)
        cohort.scrape_rows()
        with pytest.raises(ValueError):
            cohort.inc(REQS, 0, -1.0)
        with pytest.raises(ValueError):
            cohort.set(REQS, 0, 0.0)
        with pytest.raises(ValueError):
            cohort.inc(DEPTH, 0, 1.0)
        rows = rows_by_name(cohort)          # a refused write is no write
        assert rows["cohort:n/home.reqs"] == 5.0
        assert rows["cohort:n/rollup.changed"] == 0.0

    @pytest.mark.parametrize("size, schema, every", [
        pytest.param(0, SCHEMA, 1, id="no-members"),
        pytest.param(1, SCHEMA, 0, id="every-0"),
        pytest.param(1, (("home.reqs", "counter"), ("home.reqs", "gauge")),
                     1, id="duplicate-metric"),
        pytest.param(1, (("home.lat", "histogram"),), 1, id="histogram"),
    ])
    def test_bad_shapes_rejected(self, size, schema, every):
        with pytest.raises(ValueError):
            RollupCohort("n", size, schema, every=every)


# -- the columnar fold against per-home registries ---------------------------

class RegistryCohort:
    """The fold as it was when every home had a ``MetricsRegistry``:
    version deltas are loudness, the first fold offers nothing, totals
    re-summed from each member's last ``snapshot_series``."""

    def __init__(self, name, size, k):
        self.name, self.sketch = name, SpaceSaving(k)
        self.homes = [MetricsRegistry(namespace="home") for _ in range(size)]
        for home in self.homes:
            home.counter("reqs")
            home.gauge("depth")
        self.versions, self.rows = [-1] * size, [None] * size

    def scrape_rows(self):
        changed, totals, kinds = 0, {}, {}
        for i, home in enumerate(self.homes):
            if home.version != self.versions[i]:
                changed += 1
                if self.versions[i] >= 0:
                    self.sketch.offer(f"{self.name}h{i}",
                                      float(home.version - self.versions[i]))
                self.versions[i] = home.version
                self.rows[i] = home.snapshot_series()
            for metric, kind, value in self.rows[i]:
                totals[metric] = totals.get(metric, 0.0) + value
                kinds[metric] = kind
        prefix = f"cohort:{self.name}/"
        rows = [(f"{prefix}{metric}", kinds[metric],
                 totals[metric] / len(self.homes)
                 if kinds[metric] == "gauge" else totals[metric])
                for metric in sorted(totals)]
        rows.append((f"{prefix}rollup.members", "gauge",
                     float(len(self.homes))))
        rows.append((f"{prefix}rollup.changed", "gauge", float(changed)))
        for source, _count, _error in self.sketch.top():
            rows.extend((f"{source}/{metric}", kind, value) for metric, kind,
                        value in self.rows[int(source[len(self.name) + 1:])])
        return rows


# One op: ("scrape",) or (home, heavy, step, devices) — a heavy bump is
# three writes (two counters and the gauge), a light one one write.
SCRAPE = ("scrape",)


def bump_ops(size):
    bump = st.tuples(st.integers(0, size - 1), st.booleans(),
                     st.integers(1, 7), st.integers(1, 4))
    return st.lists(st.one_of(st.just(SCRAPE), bump), max_size=60)


@st.composite
def fleets(draw):
    size = draw(st.integers(1, 24))
    return (size, draw(st.integers(1, 4)), draw(st.integers(1, 3)),
            draw(bump_ops(size)))


@settings(max_examples=150, deadline=None)
@given(fleets())
# Tied members n0h2 and n0h10: string and integer keys order differently.
@example((12, 2, 1, [SCRAPE, (2, False, 1, 1), (10, False, 1, 1), SCRAPE,
                     (3, False, 1, 1), SCRAPE]))
# Bumps before the first fold: setup, not loudness.
@example((3, 1, 1, [(1, True, 2, 3), SCRAPE, (0, False, 1, 1), SCRAPE]))
# A heavy bump is three mutations: n0h0 outweighs n0h1's two and stays.
@example((3, 2, 1, [SCRAPE, (0, True, 1, 1), (1, False, 1, 1),
                    (1, False, 1, 1), SCRAPE, (2, False, 1, 1), SCRAPE]))
def test_columnar_fold_equals_per_home_registries(drawn):
    size, k, every, ops = drawn
    cohort = RollupCohort("n0", size, SCHEMA, k=k, every=every)
    reference = RegistryCohort("n0", size, k)
    scrapes = 0
    for op in ops + [SCRAPE] * every:        # end on a scrape that folds
        if op == SCRAPE:
            if scrapes % every == 0:
                assert cohort.scrape_rows() == reference.scrape_rows()
            scrapes += 1
            continue
        home, heavy, step, devices = op
        registry = reference.homes[home]
        cohort.inc(REQS, home, step * 128.0)
        registry.counters["reqs"].inc(step * 128.0)
        if heavy:
            cohort.inc(REQS, home, step * 4096.0)
            registry.counters["reqs"].inc(step * 4096.0)
            cohort.set(DEPTH, home, float(devices))
            registry.gauges["depth"].set(float(devices))
