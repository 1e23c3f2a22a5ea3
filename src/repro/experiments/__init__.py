"""Experiments: single benches and parallel multi-run *studies*.

Two layers live here:

- :mod:`repro.experiments.benchrun` — the experiment driver
  (``python -m repro.experiments e1 e6``): discovers the
  ``experiment()`` functions in ``benchmarks/`` and runs a selection.
  Its public names are re-exported below.
- the **study runner** — :class:`~repro.experiments.spec.StudySpec`
  describes a scenario fanned across a seed list and/or parameter
  grid; :func:`~repro.experiments.runner.run_study` executes the cells
  on a process pool (journaled, resumable), each cell exporting its
  TSDB/SLO/fault/trace artifacts plus a provenance manifest; and
  :func:`~repro.experiments.summary.build_summary` merges the per-run
  exports into aligned series with bootstrap CI bands and cross-seed
  SLO pass-rate tables. ``scripts/study_run.py`` is the CLI,
  ``make study`` the quickstart.
"""

from repro.experiments.benchrun import (  # noqa: F401
    discover,
    find_benchmarks_dir,
    load_experiment,
    main,
    run,
)
from repro.experiments.manifest import (  # noqa: F401
    CellManifest,
    load_journal,
    load_manifest,
)
from repro.experiments.merge import AlignedSeries, merge_tsdb  # noqa: F401
from repro.experiments.runner import StudyResult, run_study  # noqa: F401
from repro.experiments.spec import Cell, StudySpec  # noqa: F401
from repro.experiments.summary import (  # noqa: F401
    build_summary,
    load_summary,
    summary_bytes,
    write_summary,
)

__all__ = [
    # the experiment driver
    "discover", "find_benchmarks_dir", "load_experiment", "main", "run",
    # study runner
    "Cell", "StudySpec", "StudyResult", "run_study",
    "CellManifest", "load_journal", "load_manifest",
    "AlignedSeries", "merge_tsdb",
    "build_summary", "load_summary", "summary_bytes", "write_summary",
]
