"""Dashboard rendering from exported artifacts, plus the sparkline."""

import json

import pytest

from repro.metrics.counters import MetricsRegistry
from repro.obs.dashboard import (RunArtifacts, dashboard_json, run_document,
                                 sparkline)
from repro.obs.document import to_html, to_markdown
from repro.obs.slo import RatioSli, SloMonitor, SloSpec, BurnRule
from repro.obs.timeseries import TimeSeriesDB
from repro.sim.engine import Simulator
from tests.obs.test_document import assert_in_every_rendering


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_flatline_is_lowest_block(self):
        out = sparkline([(0.0, 5.0), (1.0, 5.0), (2.0, 5.0)])
        assert set(out) == {"▁"}

    def test_peak_maps_to_highest_block(self):
        out = sparkline([(float(t), v)
                         for t, v in enumerate([0, 1, 9, 1, 0])], width=5)
        assert "█" in out
        assert out[0] == "▁"

    def test_bucketed_to_width(self):
        points = [(float(t), float(t % 3)) for t in range(200)]
        assert len(sparkline(points, width=30)) == 30

    def test_burst_survives_bucketing(self):
        # One spike among many flat points must still render as the max.
        points = [(float(t), 100.0 if t == 57 else 1.0) for t in range(100)]
        assert "█" in sparkline(points, width=10)


def markdown_of(art):
    return to_markdown(run_document(art))


def html_of(art):
    return to_html(run_document(art))


def fixture_artifacts(tmp_path, capacity=65536):
    """Run a tiny instrumented sim and load its exports as RunArtifacts."""
    sim = Simulator(seed=5)
    tracer = sim.enable_tracing(capacity=capacity)
    reg = MetricsRegistry(namespace="svc")
    total = reg.counter("requests", "")
    bad = reg.counter("errors", "")
    db = TimeSeriesDB(sim, interval=0.25)
    db.add_registry(reg, source="client")
    spec = SloSpec(
        "svc-availability", "svc", 0.9,
        RatioSli(total=("client/svc.requests",), bad=("client/svc.errors",)),
        rules=(BurnRule("fast", 2.0, 0.5, 2.0),))
    monitor = SloMonitor(sim, db, [spec], interval=0.5)
    db.start()
    monitor.start()

    def traffic():
        with tracer.trace("svc.request"):
            total.inc(2)
            if sim.now < 3.0:
                bad.inc(1)
        if sim.now < 6.0:
            sim.schedule(0.25, traffic, label="svc.tick")

    sim.schedule(0.25, traffic, label="svc.tick")
    sim.run()
    monitor.finish()

    trace_path = tmp_path / "trace.jsonl"
    tsdb_path = tmp_path / "tsdb.jsonl"
    slo_path = tmp_path / "slo.jsonl"
    faults_path = tmp_path / "faults.jsonl"
    profile_path = tmp_path / "profile.json"
    tracer.export_jsonl(str(trace_path))
    db.export_jsonl(str(tsdb_path))
    monitor.export_jsonl(str(slo_path))
    faults_path.write_text(json.dumps(
        {"t": 0.5, "event": "link_flap_start", "target": "hpop-x"}) + "\n")
    profile_path.write_text(json.dumps({
        "events": 42, "wall_seconds": 0.01, "sim_seconds": 6.0,
        "wall_sim_ratio": 0.0017, "events_per_second": 4200.0,
        "labels": {"svc.tick": {"count": 24, "wall_s": 0.008}}}))

    return RunArtifacts.load(
        trace_path=str(trace_path), tsdb_path=str(tsdb_path),
        faults_path=str(faults_path), slo_path=str(slo_path),
        profile_path=str(profile_path), title="unit fixture")


class TestRunArtifacts:
    def test_load_all(self, tmp_path):
        art = fixture_artifacts(tmp_path)
        assert art.trace is not None and art.trace.records
        assert art.tsdb
        assert art.faults[0]["event"] == "link_flap_start"
        assert [e["state"] for e in art.slo_events if "state" in e]
        assert len(art.slo_verdicts) == 1
        assert art.profile["events"] == 42

    def test_partial_load(self, tmp_path):
        art = fixture_artifacts(tmp_path)
        partial = RunArtifacts.load(tsdb_path=None, trace_path=None)
        assert partial.trace is None
        assert partial.tsdb == {}
        # Rendering a near-empty artifact set must not raise.
        assert "Run dashboard" in markdown_of(partial)
        assert "<html>" in html_of(partial)
        del art

    def test_correlations(self, tmp_path):
        art = fixture_artifacts(tmp_path)
        rows = art.correlations(lookback=10.0)
        assert rows  # the alert fired
        assert rows[0]["causes"][0]["event"] == "link_flap_start"


class TestMarkdown:
    def test_sections_present(self, tmp_path):
        md = markdown_of(fixture_artifacts(tmp_path))
        assert md.startswith("# Run dashboard — unit fixture")
        assert "## SLO verdicts" in md
        assert "## Burn-rate alerts and correlated faults" in md
        assert "likely cause: t=0.50 link_flap_start on hpop-x" in md
        assert "## Fault timeline" in md
        assert "## Key time series" in md
        assert "## Span latency" in md
        assert "## Event-loop profile" in md
        assert "VIOLATED" in md  # 50% errors against a 10% budget

    def test_alert_line_shows_burn(self, tmp_path):
        md = markdown_of(fixture_artifacts(tmp_path))
        assert "`svc-availability`" in md
        assert "burn " in md


class TestHtml:
    def test_self_contained_page(self, tmp_path):
        html = html_of(fixture_artifacts(tmp_path))
        assert html.startswith("<!DOCTYPE html>")
        assert "<style>" in html
        assert "src=" not in html  # no external assets
        assert "unit fixture" in html
        assert 'class="violated"' in html
        assert "link_flap_start" in html

    def test_escapes_artifact_strings(self, tmp_path):
        art = fixture_artifacts(tmp_path)
        art.title = "<script>alert(1)</script>"
        html = html_of(art)
        assert "<script>" not in html
        assert "&lt;script&gt;" in html


def control_fixture(tmp_path, **kwargs):
    """fixture_artifacts plus a control decision log joined in."""
    art = fixture_artifacts(tmp_path, **kwargs)
    firing = next(e for e in art.slo_events if e.get("state") == "firing")
    control_path = tmp_path / "control.jsonl"
    records = [
        {"t": firing["t"], "event": "decision", "action": "nocdn.quarantine",
         "target": "peer-x", "trigger": f"alert:{firing['slo']}",
         "outcome": "executed"},
        {"t": firing["t"], "event": "decision", "action": "attic.probe",
         "target": "peer-x", "trigger": f"alert:{firing['slo']}",
         "outcome": "cooldown"},
        {"t": firing["t"] + 2.0, "event": "converged", "slo": firing["slo"],
         "fired_t": firing["t"], "convergence_s": 2.0, "decisions": 1},
    ]
    control_path.write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    art.control = list(map(json.loads,
                           control_path.read_text().splitlines()))
    return art


class TestControlSection:
    def test_alert_shows_remediation_and_convergence(self, tmp_path):
        art = control_fixture(tmp_path)
        md = markdown_of(art)
        assert "## Remediation decisions" in md
        assert "remediation: nocdn.quarantine on peer-x (executed)" in md
        assert "converged in 2.00s" in md
        assert "1 remediation actions" in md  # cooldown not counted
        html = html_of(art)
        assert "Remediation decisions" in html
        assert "nocdn.quarantine" in html
        assert "converged in 2.00s" in html

    def test_unconverged_alert_is_flagged(self, tmp_path):
        art = control_fixture(tmp_path)
        art.control = [r for r in art.control if r["event"] == "decision"]
        md = markdown_of(art)
        assert "not converged by run end" in md

    def test_dashboard_json_control_block(self, tmp_path):
        art = control_fixture(tmp_path)
        payload = dashboard_json(art)
        assert payload["control"]["decisions"] == 2
        assert payload["control"]["executed"] == 1
        assert payload["control"]["by_action"] == {"nocdn.quarantine": 1}
        assert payload["control"]["convergences"][0]["convergence_s"] == 2.0
        alert = payload["alerts"][0]
        assert alert["decisions"] == 2
        assert alert["convergence_s"] == 2.0

    def test_load_control_artifact(self, tmp_path):
        art = control_fixture(tmp_path)
        reloaded = RunArtifacts.load(
            control_path=str(tmp_path / "control.jsonl"))
        assert reloaded.control == art.control
        assert len(reloaded.control_decisions()) == 2
        assert len(reloaded.control_convergences()) == 1

    def test_no_control_log_means_no_section(self, tmp_path):
        md = markdown_of(fixture_artifacts(tmp_path))
        assert "Remediation decisions" not in md
        assert "not converged" not in md


class TestHtmlMarkdownParity:
    def test_every_markdown_section_is_in_the_html(self, tmp_path):
        # Every artifact present, a ring buffer small enough to drop,
        # a sampled export, and an alert that carries an exemplar.
        art = control_fixture(tmp_path, capacity=16)
        assert art.trace.dropped and art.trace.dropped_by_kind
        art.trace.sampling = {
            "rate": 0.1, "traces_seen": 24, "traces_kept": 3,
            "spans_kept": 5, "spans_discarded": 40,
            "kept_by_reason": {"error": 2, "pinned": 1}, "pins_missed": 1}
        root = art.trace.spans()[0]
        root.trace_id = root.span_id
        firing = next(e for e in art.slo_events if e.get("state") == "firing")
        firing.update(exemplar_trace=root.span_id, exemplar_value=0.25,
                      exemplar_t=firing["t"])

        doc = run_document(art)
        assert [s.heading for s in doc.sections if s.heading] == [
            "SLO verdicts", "Burn-rate alerts and correlated faults",
            "Remediation decisions", "Fault timeline", "Key time series",
            "Span latency (simulated time)",
            "Critical path of slowest span: svc.request (0.000 ms)",
            "Trace hotspots by event label", "Tail sampling",
            "Event-loop profile (host CPU)"]
        md, _html, text = assert_in_every_rendering(doc)
        assert f"WARNING: {art.trace.dropped} spans dropped" in text
        for kind, count in art.trace.dropped_by_kind.items():
            assert f"{kind}={count}" in text
        assert "WARNING: 1 exemplar pins missed" in text
        assert "3/24 traces kept at rate 0.1" in text
        assert (f"  - exemplar: trace `{root.span_id}`, worst request "
                f"0.250s at t={firing['t']:.2f}\n    - `t=") in md
        assert "sim-s covered" in text


class TestDashboardJson:
    def test_fault_times_keep_full_precision(self, tmp_path):
        art = fixture_artifacts(tmp_path)
        art.faults = [{"t": 0.123456, "event": "node_crash", "target": "h"},
                      {"t": 7.000000001, "event": "node_crash", "target": "h"}]
        assert dashboard_json(art)["faults"] == {"node_crash": {
            "count": 2, "first_t": 0.123456, "last_t": 7.000000001}}
        assert "| node_crash | 2 | 0.12 | 7.00 |" in markdown_of(art)
