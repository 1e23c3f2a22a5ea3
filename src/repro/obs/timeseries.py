"""A sim-time time-series database over the fleet's metric registries.

PR 2 gave every service a :class:`~repro.metrics.counters.
MetricsRegistry`, but only as an end-of-run snapshot — fine for "how
many shards were repaired", useless for "when did page loads degrade
and for how long". :class:`TimeSeriesDB` adds the time dimension: it
periodically scrapes every registered registry (a weak engine event,
so scraping never keeps a run alive) into bounded in-memory series,
downsampling when a series outgrows its budget, and exports the whole
database as deterministic JSONL.

Design notes
------------
- **Sources, not just namespaces.** A fleet has eight ``peer-backup``
  registries; series names are ``source/namespace.metric`` (e.g.
  ``h0/peer-backup.shards_repaired``) so per-HPoP series coexist.
- **Kinds matter.** Counters are cumulative (downsampling keeps the
  later sample; ``delta``/``rate`` make sense); gauges are levels
  (downsampling averages the pair). The registry reports each metric's
  kind via :meth:`~repro.metrics.counters.MetricsRegistry.
  snapshot_series`.
- **Determinism.** Scrapes read metric values and append points; they
  never touch RNG streams or reorder service events. Exports round
  times/values and serialize with sorted keys, so two runs from the
  same seed produce byte-identical files — asserted by
  ``tests/integration/test_quickstart_exports.py`` and the chaos
  telemetry test.
- **Bounded memory.** Each series holds at most ``MAX_POINTS`` points.
  On overflow the oldest half is collapsed pairwise (resolution
  doubles), so a series always spans the whole run with fine detail at
  the recent end — a classic RRD-style bound without wall-clock input.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.metrics.counters import MetricsRegistry

DEFAULT_QUANTILES: Tuple[float, ...] = (0.5, 0.99)
# Points kept per series before the oldest half is downsampled.
MAX_POINTS = 512


class Series:
    """One metric over sim time: ``(t, value)`` points plus bookkeeping."""

    __slots__ = ("name", "kind", "points", "resolution")

    def __init__(self, name: str, kind: str) -> None:
        if kind not in ("counter", "gauge"):
            raise ValueError(f"series {name}: unknown kind {kind!r}")
        self.name = name
        self.kind = kind
        self.points: List[Tuple[float, float]] = []
        # How many raw scrapes one stored point represents; doubles on
        # each downsample pass.
        self.resolution = 1

    def append(self, t: float, value: float, max_points: int) -> None:
        self.points.append((t, value))
        if len(self.points) > max_points:
            self._downsample()

    def _downsample(self) -> None:
        """Collapse adjacent pairs: half the points, double the span each
        covers. Counters keep the later (cumulative) value; gauges keep
        the pair mean. The last point is always kept verbatim so
        ``latest`` never loses precision."""
        merged: List[Tuple[float, float]] = []
        points = self.points
        pair_end = len(points) - 1 if len(points) % 2 else len(points)
        for i in range(0, pair_end, 2):
            t0, v0 = points[i]
            t1, v1 = points[i + 1]
            merged.append((t1, v1 if self.kind == "counter"
                           else (v0 + v1) / 2.0))
        if len(points) % 2:
            merged.append(points[-1])
        self.points = merged
        self.resolution *= 2

    # -- queries ----------------------------------------------------------

    def latest(self) -> Optional[Tuple[float, float]]:
        return self.points[-1] if self.points else None

    def window(self, start: float, end: float) -> List[Tuple[float, float]]:
        """Points with ``start <= t <= end`` (inclusive both ends).

        Points are appended in nondecreasing time order (the scraper's
        cadence guarantees it), so both ends bisect in O(log n).
        """
        i = bisect_left(self.points, (start,))
        j = bisect_right(self.points, (end, float("inf")))
        return self.points[i:j]

    def value_at(self, t: float) -> Optional[float]:
        """Last value at or before ``t`` (step interpolation)."""
        i = bisect_right(self.points, (t, float("inf")))
        return self.points[i - 1][1] if i else None

    def delta(self, start: float, end: float) -> float:
        """Counter increase over [start, end]; 0 for an empty window.

        The baseline is the last value *at or before* ``start`` (or the
        first in-window point when the series began mid-window), so a
        window that contains one scrape still sees the increments that
        landed in it.
        """
        if self.kind != "counter":
            raise ValueError(f"delta() on gauge series {self.name}")
        inside = self.window(start, end)
        if not inside:
            return 0.0
        base = self.value_at(start)
        if base is None:
            base = inside[0][1]
        return max(0.0, inside[-1][1] - base)

    def rate(self, start: float, end: float) -> float:
        """Counter increase per simulated second over [start, end]."""
        span = end - start
        return self.delta(start, end) / span if span > 0 else 0.0

    def values_on_grid(self, grid: Sequence[float]) -> List[float]:
        """Step-interpolated values at each grid time.

        The cross-run merge (:mod:`repro.experiments.merge`) compares
        runs whose scrape times never line up exactly (different
        downsampling histories); resampling every run onto one grid
        makes them pointwise comparable. Times before the first point
        clamp to the first value so the result is always dense.
        """
        if not self.points:
            return [0.0 for _ in grid]
        first = self.points[0][1]
        out: List[float] = []
        for t in grid:
            value = self.value_at(t)
            out.append(first if value is None else value)
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "resolution": self.resolution,
            "points": [[round(t, 9), round(v, 9)] for t, v in self.points],
        }


class TimeSeriesDB:
    """Bounded in-memory TSDB fed by periodic registry scrapes.

    ``interval`` is the scrape cadence in simulated seconds;
    :data:`MAX_POINTS` bounds every series, and histograms are sampled
    at :data:`DEFAULT_QUANTILES`. Call :meth:`add_registry` for
    each registry (with a ``source`` to disambiguate fleet members),
    then :meth:`start`. Scrapes ride the event heap as *weak* events:
    they sample whenever strong work is in flight but never keep
    ``run()`` from reaching quiescence.
    """

    def __init__(self, sim: Any, interval: float = 1.0) -> None:
        if interval <= 0:
            raise ValueError(f"scrape interval must be positive: {interval}")
        self.sim = sim
        self.interval = interval
        self.series: Dict[str, Series] = {}
        self.scrapes = 0
        self._sources: List[Tuple[str, MetricsRegistry]] = []
        # Per-source scrape cache: source index -> (registry version,
        # prebuilt rows). A registry whose version has not moved since
        # the last scrape reuses its rows instead of re-walking every
        # metric (and re-sorting histogram samples for quantiles) — at
        # fleet scale most registries are untouched in any interval.
        # The cached rows are still appended each tick, so exports stay
        # byte-identical with the uncached path.
        self._scrape_cache: Dict[int, Tuple[int, List[Tuple[str, str, float]]]] = {}
        self._extra: List[Tuple[str, str, Callable[[], float]]] = []
        self._rollups: List[Any] = []
        # Rows appended by the most recent scrape() — the cardinality
        # the governor bounds (O(focus + cohorts + k), not O(homes)).
        self.last_scrape_rows = 0
        # Imported here: the engine imports repro.obs for its tracer.
        from repro.sim.engine import Process
        self._process = Process(sim, "tsdb")
        self._started = False

    # -- registration -----------------------------------------------------

    def add_registry(self, registry: MetricsRegistry,
                     source: str = "") -> "TimeSeriesDB":
        """Scrape ``registry`` each tick; ``source`` prefixes its series."""
        self._sources.append((source, registry))
        return self

    def add_callback(self, name: str, fn: Callable[[], float],
                     kind: str = "gauge") -> "TimeSeriesDB":
        """Scrape an ad-hoc value (fleet aggregates, world state...)."""
        if kind not in ("counter", "gauge"):
            raise ValueError(f"unknown series kind {kind!r}")
        self._extra.append((name, kind, fn))
        return self

    def add_rollup(self, cohort: Any) -> "TimeSeriesDB":
        """Fold a :class:`~repro.obs.rollup.RollupCohort` each tick.

        The cohort contributes aggregate + top-k rows instead of one
        series set per member; its ``every`` attribute can thin the
        cadence further (scraped on ticks where ``scrapes % every ==
        0``).
        """
        self._rollups.append(cohort)
        return self

    # -- scraping ---------------------------------------------------------

    def start(self) -> "TimeSeriesDB":
        """Take one scrape now and begin the periodic cadence."""
        if not self._started:
            self._started = True
            self.scrape()
            self._process.every(self.interval, self.scrape,
                                label="tsdb.scrape")
        return self

    def stop(self) -> None:
        """Cancel the queued scrape and stop rescheduling."""
        self._process.stop()

    def scrape(self) -> None:
        """Sample every registered registry and callback right now."""
        now = self.sim.now
        cache = self._scrape_cache
        appended = 0
        for index, (source, registry) in enumerate(self._sources):
            version = registry.version
            cached = cache.get(index)
            if (cached is not None and cached[0] == version
                    and not registry.fn_gauges):
                rows = cached[1]
            else:
                prefix = f"{source}/" if source else ""
                rows = [(f"{prefix}{name}", kind, value)
                        for name, kind, value
                        in registry.snapshot_series(DEFAULT_QUANTILES)]
                cache[index] = (version, rows)
            for name, kind, value in rows:
                self._append(name, kind, now, value)
            appended += len(rows)
        for cohort in self._rollups:
            if self.scrapes % cohort.every:
                continue
            for name, kind, value in cohort.scrape_rows():
                self._append(name, kind, now, value)
                appended += 1
        for name, kind, fn in self._extra:
            self._append(name, kind, now, float(fn()))
        appended += len(self._extra)
        self.last_scrape_rows = appended
        self.scrapes += 1

    def _append(self, name: str, kind: str, t: float, value: float) -> None:
        series = self.series.get(name)
        if series is None:
            self.series[name] = series = Series(name, kind)
        series.append(t, value, MAX_POINTS)

    # -- queries ----------------------------------------------------------

    def get(self, name: str) -> Series:
        try:
            return self.series[name]
        except KeyError:
            raise KeyError(f"no series named {name!r}; "
                           f"{len(self.series)} series exist") from None

    def names(self, substring: str = "") -> List[str]:
        return sorted(n for n in self.series if substring in n)

    def latest(self, name: str) -> Optional[float]:
        point = self.get(name).latest()
        return point[1] if point else None

    def delta(self, name: str, window: float,
              end: Optional[float] = None) -> float:
        """Counter increase over the trailing ``window`` sim-seconds."""
        end = self.sim.now if end is None else end
        return self.get(name).delta(end - window, end)

    def sum_delta(self, names: Iterable[str], window: float,
                  end: Optional[float] = None) -> float:
        """Summed counter increase across several series (missing = 0)."""
        total = 0.0
        for name in names:
            if name in self.series:
                total += self.delta(name, window, end)
        return total

    # -- export -----------------------------------------------------------

    def export_jsonl(self, path: str) -> int:
        """One JSON object per series, name-sorted; returns line count.

        Times and values are rounded (9 dp) and keys sorted, so runs
        from the same seed export byte-identical files.
        """
        names = sorted(self.series)
        with open(path, "w", encoding="utf-8") as fh:
            for name in names:
                fh.write(json.dumps(self.series[name].to_dict(),
                                    sort_keys=True, separators=(",", ":")))
                fh.write("\n")
        return len(names)


def time_grid(start: float, end: float, points: int) -> List[float]:
    """``points`` evenly spaced times over [start, end], 9-dp rounded.

    Rounding here (not at use sites) keeps the grid — and everything
    derived from it, like the study summary's band arrays — bitwise
    reproducible no matter who computes it.
    """
    if points < 1:
        raise ValueError(f"grid needs >= 1 point: {points}")
    if points == 1 or end <= start:
        return [round(start, 9)]
    step = (end - start) / (points - 1)
    return [round(start + i * step, 9) for i in range(points)]


def load_jsonl(path: str) -> Dict[str, Series]:
    """Rehydrate an exported TSDB file into query-ready series."""
    out: Dict[str, Series] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            raw = json.loads(line)
            series = Series(raw["name"], raw["kind"])
            series.resolution = int(raw.get("resolution", 1))
            series.points = [(float(t), float(v))
                             for t, v in raw.get("points", [])]
            out[series.name] = series
    return out
