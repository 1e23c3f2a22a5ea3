"""The study runner: pool execution, journaling, resume, failure paths."""

import json

import pytest

from repro.experiments import (
    StudySpec,
    build_summary,
    load_journal,
    run_study,
    summary_bytes,
)
from repro.experiments.manifest import load_manifest
from repro.experiments.runner import cell_dir

TOY = "tests.experiments.toy:scenario"
BROKEN = "tests.experiments.toy:broken_scenario"


def toy_spec(seeds=(1, 2), workers=1, **kwargs):
    return StudySpec.build(TOY, seeds=seeds, workers=workers, **kwargs)


def drop_journal_line(study_dir, cell_id):
    journal = study_dir / "journal.jsonl"
    kept = [line for line in journal.read_text().splitlines()
            if json.loads(line)["cell"] != cell_id]
    journal.write_text("".join(line + "\n" for line in kept))


class TestRun:
    def test_inline_run_completes_all_cells(self, tmp_path):
        result = run_study(toy_spec(), tmp_path, progress=None)
        assert result.ok
        assert result.executed == ["seed1", "seed2"]
        assert result.skipped == []
        for cell_id in result.executed:
            manifest = load_manifest(cell_dir(tmp_path, cell_id))
            assert manifest.status == "ok"
            assert manifest.result["reqs"] > 0
            assert "tsdb.jsonl" in manifest.artifacts
            assert "slo.jsonl" in manifest.artifacts

    def test_pooled_run_matches_inline_artifacts(self, tmp_path):
        inline, pooled = tmp_path / "inline", tmp_path / "pooled"
        assert run_study(toy_spec(workers=1), inline, progress=None).ok
        result = run_study(toy_spec(workers=2), pooled, progress=None)
        assert result.ok and result.workers == 2
        for cell_id in ("seed1", "seed2"):
            a = (cell_dir(inline, cell_id) / "tsdb.jsonl").read_bytes()
            b = (cell_dir(pooled, cell_id) / "tsdb.jsonl").read_bytes()
            assert a == b, f"{cell_id} artifacts differ across pool sizes"
        # Worker count and scheduling order may never leak into the
        # merged cross-run statistics either — and the summary they
        # agree on has to carry some.
        summary = build_summary(pooled)
        assert summary_bytes(summary) == summary_bytes(build_summary(inline))
        assert set(summary["slo"]["matrix"]) == {"seed1", "seed2"}
        assert all(summary["slo"]["matrix"].values())
        assert summary["slo"]["pass_rates"]
        assert any(band["runs"] == ["seed1", "seed2"]
                   and band["ci_lo"] != band["ci_hi"]
                   for band in summary["series"].values())

    def test_journal_records_every_cell(self, tmp_path):
        run_study(toy_spec(), tmp_path, progress=None)
        journal = load_journal(tmp_path)
        assert set(journal) == {"seed1", "seed2"}
        assert all(j["status"] == "ok" for j in journal.values())

    def test_wall_time_recorded_outside_summary(self, tmp_path):
        result = run_study(toy_spec(), tmp_path, progress=None)
        assert result.cell_wall_total() > 0
        manifest = load_manifest(cell_dir(tmp_path, "seed1"))
        assert manifest.wall_s > 0


class TestResume:
    def test_completed_cells_skipped(self, tmp_path):
        run_study(toy_spec(), tmp_path, progress=None)
        again = run_study(toy_spec(), tmp_path, progress=None)
        assert again.executed == []
        assert again.skipped == ["seed1", "seed2"]

    def test_missing_cell_rerun_alone(self, tmp_path):
        """A cell whose artifacts vanished re-runs alone — whether the
        journal still lists it or (a kill mid-cell) never did — and the
        summary comes out as if nothing had happened."""
        run_study(toy_spec(), tmp_path, progress=None)
        uninterrupted = summary_bytes(build_summary(tmp_path))
        for journal_line_lost in (False, True):
            victim = cell_dir(tmp_path, "seed2")
            for path in victim.iterdir():
                path.unlink()
            victim.rmdir()
            if journal_line_lost:
                drop_journal_line(tmp_path, "seed2")
            resumed = run_study(toy_spec(), tmp_path, progress=None)
            assert resumed.executed == ["seed2"]
            assert resumed.skipped == ["seed1"]
            assert summary_bytes(build_summary(tmp_path)) == uninterrupted

    def test_fresh_reruns_everything(self, tmp_path):
        run_study(toy_spec(), tmp_path, progress=None)
        fresh = run_study(toy_spec(), tmp_path, resume=False,
                          progress=None)
        assert fresh.executed == ["seed1", "seed2"]
        assert fresh.skipped == []

    def test_different_spec_in_same_dir_rejected(self, tmp_path):
        run_study(toy_spec(), tmp_path, progress=None)
        other = toy_spec(seeds=(1, 2, 3))
        with pytest.raises(ValueError, match="different study"):
            run_study(other, tmp_path, progress=None)

    def test_same_spec_different_workers_accepted(self, tmp_path):
        run_study(toy_spec(workers=1), tmp_path, progress=None)
        again = run_study(toy_spec(workers=2), tmp_path, progress=None)
        assert again.executed == []


class TestFailures:
    def test_broken_scenario_becomes_error_manifest(self, tmp_path):
        spec = StudySpec.build(BROKEN, seeds=[5], workers=1)
        result = run_study(spec, tmp_path, progress=None)
        assert not result.ok
        assert result.failed == ["seed5"]
        manifest = load_manifest(cell_dir(tmp_path, "seed5"))
        assert manifest.status == "error"
        assert "scenario exploded" in manifest.error

    def test_failed_cells_rerun_on_resume(self, tmp_path):
        spec = StudySpec.build(BROKEN, seeds=[5], workers=1)
        run_study(spec, tmp_path, progress=None)
        again = run_study(spec, tmp_path, progress=None)
        assert again.executed == ["seed5"]   # errors never count as done

    def test_stale_artifacts_removed_before_rerun(self, tmp_path):
        run_study(toy_spec(seeds=(1,)), tmp_path, progress=None)
        stale = cell_dir(tmp_path, "seed1") / "trace.jsonl"
        stale.write_text("stale\n")
        drop_journal_line(tmp_path, "seed1")
        run_study(toy_spec(seeds=(1,)), tmp_path, progress=None)
        assert not stale.exists()
        manifest = load_manifest(cell_dir(tmp_path, "seed1"))
        assert "trace.jsonl" not in manifest.artifacts
