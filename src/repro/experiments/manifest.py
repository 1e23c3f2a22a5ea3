"""Per-cell provenance manifests and the study journal.

Every completed cell leaves a ``manifest.json`` in its artifact
directory recording *how the artifacts came to be*: seed, params,
scenario, wall time, exit status (``ok`` or ``error`` with traceback),
and the artifact files it exported. The study root keeps an
append-only ``journal.jsonl`` — one line per finished cell — which is
the checkpoint/resume source of truth: a cell is *done* iff the
journal marks it ``ok`` **and** its manifest is still on disk.

Determinism note: manifests carry wall-clock fields (``wall_s``) for
the dashboard's slowest-run view; the merged ``summary.json`` never
includes them, which is what keeps summary bytes identical across
worker counts, scheduling orders, and resumes.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.records import encode

MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "journal.jsonl"
STUDY_SPEC_NAME = "study.json"


@dataclass
class CellManifest:
    """Provenance for one run's artifact directory."""

    cell: str
    seed: int
    params: Dict[str, Any]
    scenario: str
    status: str                    # "ok" | "error"
    wall_s: float = 0.0
    artifacts: List[str] = field(default_factory=list)
    result: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "cell": self.cell,
            "seed": self.seed,
            "params": self.params,
            "scenario": self.scenario,
            "status": self.status,
            "wall_s": round(self.wall_s, 6),
            "artifacts": sorted(self.artifacts),
            "result": self.result,
        }
        if self.error is not None:
            out["error"] = self.error
        return out

    def write(self, cell_dir: pathlib.Path) -> pathlib.Path:
        path = cell_dir / MANIFEST_NAME
        path.write_text(json.dumps(self.to_dict(), sort_keys=True,
                                   indent=2) + "\n", encoding="utf-8")
        return path

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "CellManifest":
        return cls(
            cell=raw["cell"], seed=int(raw["seed"]),
            params=dict(raw.get("params", {})),
            scenario=raw.get("scenario", "?"),
            status=raw.get("status", "error"),
            wall_s=float(raw.get("wall_s", 0.0)),
            artifacts=list(raw.get("artifacts", [])),
            result=dict(raw.get("result", {})),
            error=raw.get("error"),
        )


def load_manifest(cell_dir: pathlib.Path) -> Optional[CellManifest]:
    """The cell's manifest, or None if it never finished a run."""
    path = pathlib.Path(cell_dir) / MANIFEST_NAME
    if not path.is_file():
        return None
    return CellManifest.from_dict(json.loads(path.read_text(
        encoding="utf-8")))


# -- journal -----------------------------------------------------------------


def journal_path(study_dir: pathlib.Path) -> pathlib.Path:
    return pathlib.Path(study_dir) / JOURNAL_NAME


def append_journal(study_dir: pathlib.Path, record: Dict[str, Any]) -> None:
    """Append one completion record (crash-safe: write+flush per line)."""
    with open(journal_path(study_dir), "a", encoding="utf-8") as fh:
        fh.write(encode(record) + "\n")
        fh.flush()


def load_journal(study_dir: pathlib.Path) -> Dict[str, Dict[str, Any]]:
    """cell id -> latest journal record (later lines win on re-runs)."""
    path = journal_path(study_dir)
    out: Dict[str, Dict[str, Any]] = {}
    if not path.is_file():
        return out
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue  # torn final line from a killed run
            if "cell" in record:
                out[record["cell"]] = record
    return out


def completed_cells(study_dir: pathlib.Path) -> Dict[str, CellManifest]:
    """Cells the resume logic may skip: journal ``ok`` + manifest intact."""
    study_dir = pathlib.Path(study_dir)
    done: Dict[str, CellManifest] = {}
    for cell_id, record in load_journal(study_dir).items():
        if record.get("status") != "ok":
            continue
        manifest = load_manifest(study_dir / "cells" / cell_id)
        if manifest is not None and manifest.status == "ok":
            done[cell_id] = manifest
    return done


# -- study spec persistence (the resume guard) --------------------------------


def write_study_spec(study_dir: pathlib.Path, spec_dict: Dict[str, Any],
                     fingerprint: str) -> None:
    path = pathlib.Path(study_dir) / STUDY_SPEC_NAME
    path.write_text(json.dumps({"spec": spec_dict,
                                "fingerprint": fingerprint},
                               sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def load_study_spec(study_dir: pathlib.Path) -> Optional[Tuple[Dict[str, Any],
                                                               str]]:
    path = pathlib.Path(study_dir) / STUDY_SPEC_NAME
    if not path.is_file():
        return None
    raw = json.loads(path.read_text(encoding="utf-8"))
    return raw.get("spec", {}), raw.get("fingerprint", "")
