#!/usr/bin/env python3
"""Run a multi-seed / parameter-grid study on a process pool.

Fans a scenario across every (seed, grid point) cell, one worker
process per core by default, journaling each completed cell so an
interrupted sweep resumes with only the missing runs (``--fresh``
discards the journal). When all cells are done it merges the per-run
TSDB/SLO/fault exports into ``summary.json`` (deterministic bytes —
independent of worker count and scheduling) and renders the study
dashboard (``study.md`` + ``study.html``: CI bands, per-seed verdict
matrix, slowest-run hotspots).

Examples::

    python scripts/study_run.py --scenario chaos --seeds 101-116 \
        --workers 8 --out artifacts/study
    python scripts/study_run.py --scenario chaos --seeds 101,102 \
        --grid fraction=0.0,0.1,0.2 --out artifacts/churn-sweep
    python scripts/study_run.py --scenario mymod:my_cell --seeds 1-8

Scenario names are built-ins (``chaos``, ``fleet``, ``nocdn_fleet``) or a
``module:callable`` path; see ``repro/experiments/scenarios.py`` for
the cell contract.
"""

import argparse
import pathlib
import sys
from typing import Any

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
for entry in (str(REPO_ROOT), str(REPO_ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.experiments import (  # noqa: E402
    StudySpec,
    build_summary,
    run_study,
    write_summary,
)
from repro.experiments.spec import parse_seeds  # noqa: E402
from repro.obs.dashboard import StudyArtifacts, study_document  # noqa: E402
from repro.obs.document import to_html, to_markdown  # noqa: E402


def parse_value(text: str) -> Any:
    """int -> float -> bool -> string, first parse wins."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--scenario", default="chaos",
                        help="built-in name or module:callable "
                             "(default: chaos)")
    parser.add_argument("--seeds", required=True,
                        help="comma list and/or inclusive ranges, "
                             "e.g. 101,105 or 101-116")
    parser.add_argument("--param", action="append", default=[],
                        metavar="K=V",
                        help="base param applied to every cell "
                             "(repeatable)")
    parser.add_argument("--grid", action="append", default=[],
                        metavar="K=V1,V2,...",
                        help="grid axis crossed into cells (repeatable)")
    parser.add_argument("--workers", type=int, default=0,
                        help="pool size; 0 = one per CPU (default)")
    parser.add_argument("--out", default="artifacts/study",
                        help="study directory (journal, cells, summary)")
    parser.add_argument("--fresh", action="store_true",
                        help="discard any journal and re-run every cell")
    parser.add_argument("--no-dashboard", action="store_true",
                        help="skip rendering study.md / study.html")
    parser.add_argument("--band-limit", type=int, default=12,
                        help="max aligned series in the summary")
    parser.add_argument("--grid-points", type=int, default=64,
                        help="time grid resolution for cross-run bands")
    parser.add_argument("--title", default=None)
    args = parser.parse_args(argv)

    params = {}
    for item in args.param:
        key, _, value = item.partition("=")
        if not key or not value:
            parser.error(f"--param needs K=V, got {item!r}")
        params[key] = parse_value(value)
    grid = {}
    for item in args.grid:
        key, _, values = item.partition("=")
        if not key or not values:
            parser.error(f"--grid needs K=V1,V2,..., got {item!r}")
        grid[key] = [parse_value(v) for v in values.split(",")]

    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as exc:
        parser.error(str(exc))
    spec = StudySpec.build(args.scenario, seeds=seeds, params=params,
                           grid=grid, workers=args.workers)
    cells = spec.cells()
    print(f"study: scenario={args.scenario} {len(seeds)} seeds x "
          f"{len(cells) // len(seeds)} grid points = {len(cells)} cells, "
          f"out={args.out}")

    result = run_study(spec, args.out, resume=not args.fresh)
    serial = result.cell_wall_total()
    print(f"{len(result.executed)} cells run, {len(result.skipped)} "
          f"resumed, {len(result.failed)} failed on {result.workers} "
          f"worker(s); pool wall {result.wall_s:.2f}s, cell wall total "
          f"{serial:.2f}s"
          + (f" ({serial / result.wall_s:.2f}x parallel speedup)"
             if result.wall_s > 0 and result.executed else ""))
    if result.failed:
        for cell_id in result.failed:
            manifest = result.manifests[cell_id]
            first_line = (manifest.error or "?").strip().splitlines()[-1]
            print(f"FAIL {cell_id}: {first_line}", file=sys.stderr)

    summary = build_summary(args.out, band_limit=args.band_limit,
                            grid_points=args.grid_points)
    summary_path = write_summary(args.out, summary)
    print(f"wrote {summary_path}")

    for row in summary["slo"]["pass_rates"]:
        print(f"  {row['slo']}: {row['met']}/{row['runs']} met "
              f"({row['pass_rate']:.0%}), mean error "
              f"{row['mean_error_rate']:.2%}, {row['alerts']} alerts")

    if not args.no_dashboard:
        doc = study_document(StudyArtifacts.load(args.out, title=args.title))
        out_dir = pathlib.Path(args.out)
        md_path = out_dir / "study.md"
        html_path = out_dir / "study.html"
        md_path.write_text(to_markdown(doc), encoding="utf-8")
        html_path.write_text(to_html(doc), encoding="utf-8")
        print(f"wrote {md_path} and {html_path}")

    return 1 if result.failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
