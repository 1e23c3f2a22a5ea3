"""The merged study summary: one deterministic JSON per study.

``build_summary`` walks a study directory (see :mod:`repro.
experiments.runner`), loads every completed cell's exports, and joins
them into a single document:

- ``cells`` — provenance + the scenario's deterministic result facts,
- ``slo`` — cross-run pass-rate rows and the per-cell verdict matrix
  (:func:`repro.obs.slo.merge_verdicts`),
- ``alerts`` — per-cell firing / fault-correlated counts,
- ``faults`` — per-cell fault-event counts by kind,
- ``series`` — aligned key series with mean/min/max and bootstrap CI
  bands (:func:`repro.experiments.merge.merge_tsdb`).

**Byte-identity contract.** The summary contains no wall-clock fields
(manifests keep those), every float is rounded on the way in, cells
are processed in sorted-id order, and the bootstrap is seeded from
series names — so the same set of per-run artifacts serialises to the
same bytes regardless of worker count, scheduling order, or how many
resume round-trips produced them. ``summary_bytes`` is the canonical
encoding; ``tests/experiments/test_runner.py`` (worker counts,
resume) and the hypothesis permutation test enforce the contract.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, List, Optional, Sequence

from repro.experiments.manifest import CellManifest, load_manifest
from repro.experiments.merge import (
    DEFAULT_BOOTSTRAP,
    DEFAULT_CONFIDENCE,
    DEFAULT_GRID_POINTS,
    merge_tsdb,
)
from repro.obs.records import ARTIFACTS, encode, read_jsonl
from repro.obs.slo import correlate_alerts, load_slo_jsonl, merge_verdicts
from repro.obs.timeseries import load_jsonl as load_tsdb

SUMMARY_NAME = "summary.json"

# Series worth a cross-run band by default: the same signals the
# single-run dashboard highlights.
BAND_SERIES_HINTS = (
    "active_faults", "page_load_seconds_p99", "chunk_fetch_failures",
    "alerts_active", "time_to_repair", "degraded_serves",
)


def _cell_dirs(study_dir: pathlib.Path) -> List[pathlib.Path]:
    root = pathlib.Path(study_dir) / "cells"
    if not root.is_dir():
        return []
    return sorted(p for p in root.iterdir() if p.is_dir())


def _select_band_names(runs: Dict[str, Dict[str, Any]],
                       hints: Sequence[str], limit: int) -> List[str]:
    """Hinted names first, then alphabetical fill — but only series
    that actually vary somewhere (flatlines earn no band)."""
    union: Dict[str, bool] = {}
    for series_map in runs.values():
        for name, series in series_map.items():
            varies = union.get(name, False)
            if not varies and len({v for _t, v in series.points}) > 1:
                varies = True
            union[name] = varies
    varying = sorted(n for n, varies in union.items() if varies)
    hinted = [n for n in varying if any(h in n for h in hints)]
    rest = [n for n in varying if n not in hinted]
    return (hinted + rest)[:limit]


def build_summary(study_dir: "pathlib.Path | str",
                  band_limit: int = 12,
                  grid_points: int = DEFAULT_GRID_POINTS,
                  resamples: int = DEFAULT_BOOTSTRAP,
                  confidence: float = DEFAULT_CONFIDENCE,
                  band_hints: Sequence[str] = BAND_SERIES_HINTS,
                  ) -> Dict[str, Any]:
    """Merge every completed cell under ``study_dir`` into one dict."""
    study_dir = pathlib.Path(study_dir)
    spec_raw: Dict[str, Any] = {}
    spec_path = study_dir / "study.json"
    if spec_path.is_file():
        spec_raw = json.loads(spec_path.read_text(
            encoding="utf-8")).get("spec", {})

    manifests: Dict[str, CellManifest] = {}
    for cell_path in _cell_dirs(study_dir):
        manifest = load_manifest(cell_path)
        if manifest is not None:
            manifests[manifest.cell] = manifest

    cells_out: List[Dict[str, Any]] = []
    verdicts_by_run: Dict[str, List[dict]] = {}
    alerts_out: Dict[str, Dict[str, int]] = {}
    faults_out: Dict[str, Dict[str, int]] = {}
    tsdb_by_run: Dict[str, Dict[str, Any]] = {}

    for cell_id in sorted(manifests):
        manifest = manifests[cell_id]
        cell_path = study_dir / "cells" / cell_id
        cells_out.append({
            "cell": cell_id,
            "seed": manifest.seed,
            "params": manifest.params,
            "status": manifest.status,
            "result": manifest.result,
        })
        if manifest.status != "ok":
            continue
        slo_path = cell_path / ARTIFACTS["slo"]
        events: List[dict] = []
        if slo_path.is_file():
            events, verdicts = load_slo_jsonl(str(slo_path))
            verdicts_by_run[cell_id] = verdicts
        faults_path = cell_path / ARTIFACTS["faults"]
        fault_events: List[dict] = []
        if faults_path.is_file():
            fault_events = list(read_jsonl(str(faults_path)))
            counts: Dict[str, int] = {}
            for record in fault_events:
                kind = record.get("event", "?")
                counts[kind] = counts.get(kind, 0) + 1
            faults_out[cell_id] = dict(sorted(counts.items()))
        if events:
            firing = [e for e in events if e.get("state") == "firing"]
            correlated = sum(
                1 for row in correlate_alerts(events, fault_events)
                if row["causes"])
            alerts_out[cell_id] = {"firing": len(firing),
                                   "correlated": correlated}
        tsdb_path = cell_path / ARTIFACTS["tsdb"]
        if tsdb_path.is_file():
            tsdb_by_run[cell_id] = load_tsdb(str(tsdb_path))

    pass_rates, matrix = merge_verdicts(verdicts_by_run)
    band_names = _select_band_names(tsdb_by_run, band_hints, band_limit)
    aligned = merge_tsdb(tsdb_by_run, names=band_names,
                         grid_points=grid_points, resamples=resamples,
                         confidence=confidence)

    ok = [c for c in cells_out if c["status"] == "ok"]
    return {
        "study": {
            "name": spec_raw.get("name", study_dir.name),
            "scenario": spec_raw.get("scenario", "?"),
            "seeds": spec_raw.get("seeds", []),
            "grid": spec_raw.get("grid", {}),
            "base_params": spec_raw.get("base_params", {}),
            "cells_total": len(cells_out),
            "cells_ok": len(ok),
            "confidence": confidence,
            "grid_points": grid_points,
            "resamples": resamples,
        },
        "cells": cells_out,
        "slo": {"pass_rates": pass_rates, "matrix": matrix},
        "alerts": {k: alerts_out[k] for k in sorted(alerts_out)},
        "faults": {k: faults_out[k] for k in sorted(faults_out)},
        "series": {name: aligned[name].to_dict()
                   for name in sorted(aligned)},
    }


def summary_bytes(summary: Dict[str, Any]) -> bytes:
    """The canonical byte encoding the identity gate compares."""
    return (encode(summary) + "\n").encode("utf-8")


def write_summary(study_dir: "pathlib.Path | str",
                  summary: Optional[Dict[str, Any]] = None,
                  **build_kwargs: Any) -> pathlib.Path:
    """Build (unless given) and write ``summary.json``; returns its path."""
    study_dir = pathlib.Path(study_dir)
    if summary is None:
        summary = build_summary(study_dir, **build_kwargs)
    path = study_dir / SUMMARY_NAME
    path.write_bytes(summary_bytes(summary))
    return path


def load_summary(study_dir: "pathlib.Path | str") -> Dict[str, Any]:
    path = pathlib.Path(study_dir) / SUMMARY_NAME
    return json.loads(path.read_text(encoding="utf-8"))
