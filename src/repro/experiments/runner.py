"""The study runner: fan a scenario across cells on a process pool.

Execution model
---------------
The parent expands the :class:`~repro.experiments.spec.StudySpec` into
cells, filters out the ones the journal already marks complete (see
:mod:`repro.experiments.manifest`), and dispatches the rest to a
``multiprocessing.Pool`` — one OS process per worker, one cell per
task, so seeds run truly in parallel on multi-core hosts (the GIL
never serialises simulation work). Each worker resolves the scenario
by name, runs it into the cell's artifact directory, and writes the
provenance manifest itself; the **parent** is the only journal writer,
appending a completion line as each result arrives. A killed study
therefore restarts cleanly: finished cells have journal+manifest, the
in-flight cell has neither and simply re-runs.

Workers never share state and the merged summary is built from
artifacts sorted by cell id, so worker count and scheduling order
cannot change a single summary byte —
``tests/experiments/test_runner.py`` gates exactly that.
"""

from __future__ import annotations

import multiprocessing
import os
import pathlib
import shutil
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments.manifest import (
    CellManifest,
    append_journal,
    completed_cells,
    load_study_spec,
    write_study_spec,
)
from repro.experiments.spec import Cell, StudySpec

ProgressFn = Callable[[str, str, float, int, int], None]


@dataclass
class StudyResult:
    """What one ``run_study`` invocation did."""

    study_dir: pathlib.Path
    executed: List[str] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)
    failed: List[str] = field(default_factory=list)
    manifests: Dict[str, CellManifest] = field(default_factory=dict)
    wall_s: float = 0.0
    workers: int = 1

    @property
    def ok(self) -> bool:
        return not self.failed

    def cell_wall_total(self) -> float:
        """Summed wall time of cells run by THIS invocation.

        Resumed cells are excluded — their manifests carry wall times
        from an earlier run, and counting them would inflate the
        parallel-speedup ratio on a resume that re-ran only stragglers.
        """
        ran = set(self.executed) | set(self.failed)
        return sum(m.wall_s for cell_id, m in self.manifests.items()
                   if cell_id in ran)


def cell_dir(study_dir: pathlib.Path, cell: "Cell | str") -> pathlib.Path:
    cell_id = cell if isinstance(cell, str) else cell.cell_id
    return pathlib.Path(study_dir) / "cells" / cell_id


def _execute_cell(task: Tuple[str, int, Tuple[Tuple[str, Any], ...],
                              str]) -> Dict[str, Any]:
    """Worker body: run one cell, write its manifest, return its dict.

    Never raises — scenario failures become ``status: "error"``
    manifests so one bad cell cannot take down the pool or lose the
    journal line for cells that finished before it.
    """
    scenario_name, seed, params_tuple, dir_str = task
    params = dict(params_tuple)
    target = pathlib.Path(dir_str)
    target.mkdir(parents=True, exist_ok=True)
    # Re-running a cell must not inherit stale artifacts from a prior
    # (possibly killed) attempt.
    for stale in target.iterdir():
        if stale.is_file():
            stale.unlink()

    cell = Cell(seed=seed, params=tuple(sorted(params.items())))
    manifest = CellManifest(cell=cell.cell_id, seed=seed, params=params,
                            scenario=scenario_name, status="error")
    t0 = time.perf_counter()
    try:
        from repro.experiments.scenarios import resolve_scenario
        fn = resolve_scenario(scenario_name)
        result = fn(seed, params, target)
        manifest.status = "ok"
        manifest.result = dict(result or {})
    except Exception:
        manifest.error = traceback.format_exc(limit=20)
    manifest.wall_s = time.perf_counter() - t0
    manifest.artifacts = sorted(
        p.name for p in target.iterdir()
        if p.is_file() and p.name != "manifest.json")
    manifest.write(target)
    return manifest.to_dict()


def _default_progress(cell_id: str, status: str, wall_s: float,
                      done: int, total: int) -> None:
    print(f"  [{done}/{total}] {cell_id}: {status} ({wall_s:.2f}s)",
          flush=True)


def run_study(spec: StudySpec, study_dir: "pathlib.Path | str",
              resume: bool = True,
              progress: Optional[ProgressFn] = _default_progress,
              ) -> StudyResult:
    """Run every not-yet-complete cell of ``spec`` under ``study_dir``.

    ``resume=True`` (default) skips cells the journal marks complete;
    ``resume=False`` wipes the journal and cell directories first.
    Raises if ``study_dir`` already holds a *different* study — a
    mismatched spec would silently mix artifacts.
    """
    study_dir = pathlib.Path(study_dir)
    study_dir.mkdir(parents=True, exist_ok=True)
    (study_dir / "cells").mkdir(exist_ok=True)

    existing = load_study_spec(study_dir)
    fingerprint = spec.fingerprint()
    if existing is not None and existing[1] and existing[1] != fingerprint:
        raise ValueError(
            f"{study_dir} already holds a different study "
            f"({existing[0].get('name', '?')!r}); point --out at a fresh "
            f"directory or delete it")
    if not resume:
        journal = study_dir / "journal.jsonl"
        if journal.exists():
            journal.unlink()
        cells_root = study_dir / "cells"
        shutil.rmtree(cells_root, ignore_errors=True)
        cells_root.mkdir()
    write_study_spec(study_dir, spec.to_dict(), fingerprint)

    cells = spec.cells()
    done = completed_cells(study_dir) if resume else {}
    pending = [c for c in cells if c.cell_id not in done]

    workers = spec.workers or (os.cpu_count() or 1)
    workers = max(1, min(workers, len(pending) or 1))
    result = StudyResult(study_dir=study_dir, workers=workers)
    for cell_id, manifest in sorted(done.items()):
        result.skipped.append(cell_id)
        result.manifests[cell_id] = manifest

    tasks = [(spec.scenario, cell.seed, cell.params,
              str(cell_dir(study_dir, cell))) for cell in pending]
    t0 = time.perf_counter()
    finished = 0

    def _absorb(raw: Dict[str, Any]) -> None:
        nonlocal finished
        finished += 1
        manifest = CellManifest.from_dict(raw)
        result.manifests[manifest.cell] = manifest
        result.executed.append(manifest.cell)
        if manifest.status != "ok":
            result.failed.append(manifest.cell)
        append_journal(study_dir, {
            "cell": manifest.cell, "seed": manifest.seed,
            "status": manifest.status,
            "wall_s": round(manifest.wall_s, 6)})
        if progress is not None:
            progress(manifest.cell, manifest.status, manifest.wall_s,
                     finished, len(tasks))

    if workers == 1 or len(tasks) <= 1:
        for task in tasks:
            _absorb(_execute_cell(task))
    else:
        with multiprocessing.Pool(processes=workers) as pool:
            for raw in pool.imap_unordered(_execute_cell, tasks):
                _absorb(raw)

    result.wall_s = time.perf_counter() - t0
    result.executed.sort()
    result.failed.sort()
    return result
