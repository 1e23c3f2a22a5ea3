"""Metric cardinality governor: columnar cohort rollups and heavy hitters.

ROADMAP item 1's constraint — scrape cost must not grow with fleet
size — dies the moment every one of 100k background homes gets its own
TSDB series per metric. A :class:`RollupCohort` holds one idle cohort's
per-home metrics as **columns** — one ``array('d')`` per metric, one
slot per member — and folds them into **cohort rollup series**
(counters sum, gauges average across the cohort) plus a deterministic
**space-saving top-k sketch** of the loudest members, which alone keep
per-member series. Per-scrape row count is then ``O(focus + cohorts *
metrics + k)`` instead of ``O(homes * metrics)``, and a member costs
one slot per column instead of a registry of Python objects.

Every write goes through :meth:`RollupCohort.inc` or
:meth:`RollupCohort.set`, which count one mutation against the member.
Those pending counts are both the dirty set (a fold visits only
members that have one) and the loudness signal the sketch ranks on.

Everything here is deterministic: no RNG, eviction ties in the sketch
break on the member name, and rollup rows emit name-sorted.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence, Tuple


class SpaceSaving:
    """Metwally et al.'s space-saving top-k heavy-hitter sketch.

    Tracks at most ``k`` keys. An untracked key arriving when full
    evicts the minimum-count key and inherits its count (stored as
    ``error``, the classic overestimate bound). Ties on count evict
    the lexicographically smallest key, so the sketch state is a pure
    function of the offer sequence.
    """

    __slots__ = ("k", "counts", "errors")

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.counts: Dict[str, float] = {}
        self.errors: Dict[str, float] = {}

    def offer(self, key: str, weight: float = 1.0) -> None:
        if weight <= 0:
            return
        counts = self.counts
        if key in counts:
            counts[key] += weight
            return
        if len(counts) < self.k:
            counts[key] = weight
            self.errors[key] = 0.0
            return
        # Plain loop, not min(key=lambda): offer() runs once per active
        # member per fold at fleet scale, so no closure per call.
        victim = ""
        victim_count = 0.0
        first = True
        for name, count in counts.items():
            if (first or count < victim_count
                    or (count == victim_count and name < victim)):
                victim, victim_count, first = name, count, False
        floor = counts.pop(victim)
        self.errors.pop(victim)
        counts[key] = floor + weight
        self.errors[key] = floor

    def top(self) -> List[Tuple[str, float, float]]:
        """(key, count, error) rows, largest count first; ties by key."""
        return sorted(
            ((key, self.counts[key], self.errors[key])
             for key in self.counts),
            key=lambda row: (-row[1], row[0]))

    def __contains__(self, key: str) -> bool:
        return key in self.counts

    def __len__(self) -> int:
        return len(self.counts)


class RollupCohort:
    """``size`` members' metrics as columns, folded into rollup series.

    ``schema`` is the members' ``(metric name, kind)`` pairs, in the
    order a member's own rows are written; ``columns[j]`` holds metric
    ``j`` for every member, all zero at the start. Member ``i`` is
    named ``{name}h{i}``. Register with :meth:`TimeSeriesDB.add_rollup`;
    each cohort scrape (every ``every`` DB ticks) contributes:

    - ``cohort:{name}/{metric}`` — counters summed, gauges averaged
      across all members,
    - ``cohort:{name}/rollup.members`` / ``rollup.changed`` — fold
      bookkeeping gauges,
    - ``{member}/{metric}`` — full-resolution per-member series, but
      *only* for the current top-``k`` loudest members (by mutations
      since their last fold) in the space-saving sketch.
    """

    def __init__(self, name: str, size: int,
                 schema: Sequence[Tuple[str, str]], k: int = 8,
                 every: int = 1) -> None:
        if every < 1 or size < 1:
            raise ValueError(f"every and size must be >= 1: {every}, {size}")
        names = {metric for metric, _kind in schema}
        if len(names) != len(schema) or any(
                kind not in ("counter", "gauge") for _m, kind in schema):
            raise ValueError(f"bad cohort schema {schema}")
        self.name = name
        self.size = size
        self.every = every
        self.schema = tuple(schema)
        self.sketch = SpaceSaving(k)
        self.columns = [array("d", bytes(8 * size)) for _ in schema]
        # Member index -> mutations since its last fold.
        self._pending: Dict[int, int] = {}
        # The column values the last fold saw; None before the first.
        self._folded: Optional[List[array]] = None
        self._totals = [0.0] * len(schema)

    def inc(self, metric: int, member: int, amount: float) -> None:
        """Add ``amount`` to counter column ``metric`` for ``member``."""
        if amount < 0 or self.schema[metric][1] != "counter":
            raise ValueError(f"{self.schema[metric][0]}: only a counter "
                             f"is inc'd, by >= 0 (inc by {amount})")
        self.columns[metric][member] += amount
        self._pending[member] = self._pending.get(member, 0) + 1

    def set(self, metric: int, member: int, value: float) -> None:
        """Set gauge column ``metric`` for ``member`` to ``value``."""
        if self.schema[metric][1] != "gauge":
            raise ValueError(f"{self.schema[metric][0]} is not a gauge")
        self.columns[metric][member] = value
        self._pending[member] = self._pending.get(member, 0) + 1

    def _fold(self) -> int:
        """Bring the totals up to the columns; returns members folded."""
        pending, columns, totals = self._pending, self.columns, self._totals
        folded = self._folded
        if folded is None:
            # Registration is setup, not loudness: the first fold adds
            # each column whole and offers nothing to the sketch.
            self._folded = [array("d", column) for column in columns]
            self._totals = [sum(column) for column in columns]
            pending.clear()
            return self.size
        for i in sorted(pending):
            for j, column in enumerate(columns):
                value = column[i]
                if value != folded[j][i]:
                    totals[j] += value - folded[j][i]
                    folded[j][i] = value
            self.sketch.offer(f"{self.name}h{i}", float(pending[i]))
        changed = len(pending)
        pending.clear()
        return changed

    def scrape_rows(self) -> List[Tuple[str, str, float]]:
        """All rows this cohort contributes to one TSDB scrape."""
        changed = self._fold()
        prefix = f"cohort:{self.name}/"
        rows: List[Tuple[str, str, float]] = [
            (f"{prefix}{metric}", kind,
             total / self.size if kind == "gauge" else total)
            for (metric, kind), total in sorted(zip(self.schema,
                                                    self._totals))]
        rows.append((f"{prefix}rollup.members", "gauge", float(self.size)))
        rows.append((f"{prefix}rollup.changed", "gauge", float(changed)))
        skip = len(self.name) + 1
        for source, _count, _error in self.sketch.top():
            i = int(source[skip:])
            rows.extend((f"{source}/{metric}", kind, self._folded[j][i])
                        for j, (metric, kind) in enumerate(self.schema))
        return rows
