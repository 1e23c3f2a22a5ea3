"""Cross-run TSDB merge: aligned series with mean/min/max and CI bands.

Each study cell exports its own ``tsdb.jsonl``; runs from different
seeds diverge in scrape times (downsampling histories differ once
fault timelines differ), so series are first resampled onto one shared
time grid (:meth:`repro.obs.timeseries.Series.values_on_grid`) and
then reduced pointwise across runs:

- ``mean`` / ``min`` / ``max`` — the band every dashboard plot shows,
- ``ci_lo`` / ``ci_hi`` — a bootstrap confidence interval on the mean
  (whole runs are resampled, preserving each run's time correlation).

Determinism contract: the merge is a pure function of the *set* of
runs. Runs are processed in sorted-id order and the bootstrap RNG is
seeded from the series name alone, so any permutation of the same
exports — any worker count, any scheduling — produces byte-identical
band arrays. ``tests/experiments`` property-tests this and gates it
end to end through the study runner.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.obs.timeseries import Series, time_grid

DEFAULT_GRID_POINTS = 64
DEFAULT_BOOTSTRAP = 200
DEFAULT_CONFIDENCE = 0.95


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of an already-sorted sequence."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


@dataclass
class AlignedSeries:
    """One metric aligned across N runs on a shared time grid."""

    name: str
    kind: str
    grid: List[float]
    runs: List[str]                       # sorted ids of contributing runs
    values: List[List[float]] = field(default_factory=list)  # per run
    mean: List[float] = field(default_factory=list)
    low: List[float] = field(default_factory=list)            # pointwise min
    high: List[float] = field(default_factory=list)           # pointwise max
    ci_lo: List[float] = field(default_factory=list)
    ci_hi: List[float] = field(default_factory=list)

    def to_dict(self, include_per_run: bool = False) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "runs": list(self.runs),
            "grid": [round(t, 9) for t in self.grid],
            "mean": [round(v, 9) for v in self.mean],
            "min": [round(v, 9) for v in self.low],
            "max": [round(v, 9) for v in self.high],
            "ci_lo": [round(v, 9) for v in self.ci_lo],
            "ci_hi": [round(v, 9) for v in self.ci_hi],
        }
        if include_per_run:
            out["values"] = [[round(v, 9) for v in row]
                             for row in self.values]
        return out


def _bootstrap_bands(values: List[List[float]], name: str,
                     resamples: int, confidence: float,
                     ) -> "tuple[List[float], List[float]]":
    """CI on the pointwise mean by resampling whole runs.

    Seeded from the series name only — independent of run order and of
    everything else merged alongside — so bands are reproducible and
    permutation-invariant.
    """
    n_runs = len(values)
    n_points = len(values[0]) if values else 0
    if n_runs < 2 or resamples < 1:
        flat = [sum(col) / n_runs for col in zip(*values)] if values else []
        return list(flat), list(flat)
    rng = random.Random(zlib.crc32(name.encode("utf-8")))
    draws = [[rng.randrange(n_runs) for _ in range(n_runs)]
             for _ in range(resamples)]
    alpha = (1.0 - confidence) / 2.0
    ci_lo: List[float] = []
    ci_hi: List[float] = []
    for p in range(n_points):
        col = [row[p] for row in values]
        means = sorted(
            sum(col[i] for i in draw) / n_runs for draw in draws)
        ci_lo.append(_percentile(means, alpha))
        ci_hi.append(_percentile(means, 1.0 - alpha))
    return ci_lo, ci_hi


def align_series(per_run: Mapping[str, Series], name: str,
                 grid_points: int = DEFAULT_GRID_POINTS,
                 resamples: int = DEFAULT_BOOTSTRAP,
                 confidence: float = DEFAULT_CONFIDENCE,
                 ) -> Optional[AlignedSeries]:
    """Align one named series across runs; None if no run has points."""
    run_ids = sorted(run_id for run_id, series in per_run.items()
                     if series.points)
    if not run_ids:
        return None
    start = min(per_run[r].points[0][0] for r in run_ids)
    end = max(per_run[r].points[-1][0] for r in run_ids)
    grid = time_grid(start, end, grid_points)
    values = [per_run[r].values_on_grid(grid) for r in run_ids]
    n = len(values)
    mean = [sum(col) / n for col in zip(*values)]
    low = [min(col) for col in zip(*values)]
    high = [max(col) for col in zip(*values)]
    ci_lo, ci_hi = _bootstrap_bands(values, name, resamples, confidence)
    return AlignedSeries(
        name=name, kind=per_run[run_ids[0]].kind, grid=grid,
        runs=run_ids, values=values, mean=mean, low=low, high=high,
        ci_lo=ci_lo, ci_hi=ci_hi)


def merge_tsdb(runs: Mapping[str, Mapping[str, Series]],
               names: Optional[Sequence[str]] = None,
               grid_points: int = DEFAULT_GRID_POINTS,
               resamples: int = DEFAULT_BOOTSTRAP,
               confidence: float = DEFAULT_CONFIDENCE,
               ) -> Dict[str, AlignedSeries]:
    """Merge per-run TSDB exports into aligned cross-run series.

    ``runs`` maps run id -> the dict :func:`repro.obs.timeseries.
    load_jsonl` returns. ``names`` restricts the merge (default: the
    union of every run's series names). Runs missing a series simply
    don't contribute to that series' band; its ``runs`` field records
    who did.
    """
    if names is None:
        union: set = set()
        for series_map in runs.values():
            union.update(series_map)
        names = sorted(union)
    out: Dict[str, AlignedSeries] = {}
    for name in names:
        per_run = {run_id: series_map[name]
                   for run_id, series_map in runs.items()
                   if name in series_map}
        aligned = align_series(per_run, name, grid_points=grid_points,
                               resamples=resamples, confidence=confidence)
        if aligned is not None:
            out[name] = aligned
    return out
