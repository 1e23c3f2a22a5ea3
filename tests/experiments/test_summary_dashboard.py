"""End-to-end: toy study -> summary bytes -> study dashboard."""

import json

import pytest

from repro.experiments import (
    StudySpec,
    build_summary,
    load_summary,
    run_study,
    summary_bytes,
    write_summary,
)
from repro.obs.dashboard import StudyArtifacts, study_document
from repro.obs.document import to_html, to_markdown
from tests.obs.test_document import assert_in_every_rendering

TOY = "tests.experiments.toy:scenario"


@pytest.fixture(scope="module")
def study_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("study")
    spec = StudySpec.build(TOY, seeds=[1, 2, 3], workers=1)
    result = run_study(spec, path, progress=None)
    assert result.ok
    write_summary(path)
    return path


class TestSummary:
    def test_summary_sections(self, study_dir):
        summary = load_summary(study_dir)
        assert summary["study"]["cells_ok"] == 3
        assert [c["cell"] for c in summary["cells"]] \
            == ["seed1", "seed2", "seed3"]
        assert summary["slo"]["pass_rates"][0]["slo"] == "toy-availability"
        assert set(summary["slo"]["matrix"]) == {"seed1", "seed2", "seed3"}
        assert summary["faults"]["seed1"] == {"toy_fault": 3}

    def test_bands_cover_every_run(self, study_dir):
        summary = load_summary(study_dir)
        assert summary["series"], "no aligned series"
        for band in summary["series"].values():
            assert band["runs"] == ["seed1", "seed2", "seed3"]
            assert len(band["mean"]) == len(band["grid"])
            assert all(lo <= hi + 1e-12 for lo, hi
                       in zip(band["ci_lo"], band["ci_hi"]))

    def test_rebuild_is_byte_identical(self, study_dir):
        assert summary_bytes(build_summary(study_dir)) \
            == summary_bytes(build_summary(study_dir))

    def test_no_wall_clock_fields_in_summary(self, study_dir):
        text = (study_dir / "summary.json").read_text()
        assert "wall_s" not in text

    def test_scenario_results_embedded(self, study_dir):
        summary = load_summary(study_dir)
        for cell in summary["cells"]:
            assert cell["result"]["reqs"] > 0


class TestStudyDashboard:
    def test_markdown_sections(self, study_dir):
        study = StudyArtifacts.load(str(study_dir))
        md = to_markdown(study_document(study))
        assert "Per-seed verdict matrix" in md
        assert "Cross-run series bands" in md
        assert "Cross-run SLO pass rates" in md
        assert "toy-availability" in md
        assert "s1" in md and "s3" in md      # per-seed columns
        assert "Slowest run" in md            # wall times from manifests

    def test_html_renders_matrix_and_bands(self, study_dir):
        study = StudyArtifacts.load(str(study_dir))
        html = to_html(study_document(study))
        assert html.startswith("<!DOCTYPE html>")
        assert "verdict matrix" in html
        assert "toy-availability" in html

    def test_wall_times_loaded_from_manifests(self, study_dir):
        study = StudyArtifacts.load(str(study_dir))
        assert set(study.wall_by_cell) == {"seed1", "seed2", "seed3"}
        assert study.slowest_cell in study.wall_by_cell

    def test_title_defaults_to_study_name(self, study_dir):
        study = StudyArtifacts.load(str(study_dir))
        assert "tests.experiments.toy:scenario" in study.title \
            or "study" in study.title


class TestStudyHtmlMarkdownParity:
    def test_every_markdown_section_is_in_the_html(self, tmp_path):
        # fail_bias 0.5 burns the toy SLO's budget, so the summary has
        # alerts, some of them inside a toy fault's lookback.
        spec = StudySpec.build(TOY, seeds=[1, 2], params={"fail_bias": 0.5},
                               workers=1)
        assert run_study(spec, tmp_path, progress=None).ok
        write_summary(tmp_path)
        study = StudyArtifacts.load(str(tmp_path))
        alerts = study.summary["alerts"]
        assert sum(a["correlated"] for a in alerts.values()) > 0
        study.slowest_profile = {
            "events": 9, "wall_seconds": 0.002, "sim_seconds": 4.0,
            "wall_sim_ratio": 0.0005, "events_per_second": 4500.0,
            "labels": {"toy.tick": {"count": 9, "wall_s": 0.002}}}
        doc = study_document(study)
        assert [s.heading for s in doc.sections] == [
            "Cross-run SLO pass rates", "Per-seed verdict matrix",
            "Cross-run series bands", "Alert↔fault correlation across seeds",
            "Slowest run"]
        md, _html, _text = assert_in_every_rendering(doc)
        for text in (
                f"{sum(a['firing'] for a in alerts.values())} burn-rate "
                f"alerts across {len(alerts)} cells, "
                f"{sum(a['correlated'] for a in alerts.values())} "
                f"correlated to an injected fault.",
                f"({study.summary['study']['resamples']} resamples)",
                f"`{study.slowest_cell}` took ",
                "| toy.tick | 9 | 2.00 | 222.2 | 100.0% |"):
            assert text in md


class TestDashboardJson:
    def test_per_run_machine_readable_summary(self, study_dir):
        from repro.obs.dashboard import RunArtifacts, dashboard_json
        cell = study_dir / "cells" / "seed1"
        art = RunArtifacts.load(tsdb_path=str(cell / "tsdb.jsonl"),
                                slo_path=str(cell / "slo.jsonl"),
                                faults_path=str(cell / "faults.jsonl"))
        payload = dashboard_json(art)
        assert payload["slo_verdicts"][0]["slo"] == "toy-availability"
        assert payload["faults"]["toy_fault"]["count"] == 3
        assert "svc/app.reqs_total" in payload["series"]
        json.dumps(payload)   # JSON-able end to end
