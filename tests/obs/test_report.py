"""Trace analysis: latency tables, critical path, hotspots, rendering."""

from repro.obs.document import Document, to_text
from repro.obs.report import (critical_path, hotspots, load_trace,
                              slowest_span, span_table, trace_sections)
from repro.sim.engine import Simulator
from tests.obs.test_document import assert_in_every_rendering


def render_text(trace):
    """What ``scripts/trace_report.py`` prints."""
    return to_text(Document(sections=trace_sections(trace)))


def build_trace(tmp_path, profiled=False):
    """A three-level async trace: request -> subop -> leaf events.
    ``profiled`` attaches the loop profiler, which must not show."""
    sim = Simulator(seed=1)
    tracer = sim.enable_tracing()
    if profiled:
        sim.enable_profiling()

    request = tracer.start_span("request")

    def do_subop():
        sub = tracer.start_span("subop", parent=request)

        def leaf():
            sub.finish()
            request.finish()

        with tracer.activate(sub):
            sim.schedule(2.0, leaf, label="leaf")

    with tracer.activate(request):
        sim.schedule(1.0, do_subop, label="start-subop")
    # An unrelated fast root span, to exercise table ordering.
    with tracer.trace("fast"):
        pass
    sim.run()
    path = str(tmp_path / "trace.jsonl")
    tracer.export_jsonl(path)
    return load_trace(path)


class TestLoading:
    def test_load_counts(self, tmp_path):
        trace = build_trace(tmp_path)
        assert len(trace.spans()) == 3
        assert len(trace.events()) == 2

    def test_load_profile(self, tmp_path):
        """A profiled run loads as the same trace: host time is not in
        the file, and record kinds an older export carried are skipped."""
        trace = build_trace(tmp_path, profiled=True)
        assert trace == build_trace(tmp_path)
        assert not hasattr(trace, "profile") and not hasattr(trace, "meta")
        with open(tmp_path / "trace.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"kind":"profile","label":"leaf","count":1,'
                     '"wall_s":0.5}\n{"kind":"meta","events":2,'
                     '"wall_s":0.5,"dropped":9}\n')
        assert load_trace(str(tmp_path / "trace.jsonl")) == trace


class TestSpanTable:
    def test_rows_and_ordering(self, tmp_path):
        trace = build_trace(tmp_path)
        rows = span_table(trace)
        names = [r[0] for r in rows]
        # request (3.0s total) before subop (2.0s) before fast (0s)
        assert names == ["request", "subop", "fast"]
        request_row = rows[0]
        assert request_row[1] == 1
        assert request_row[2] == request_row[3] == request_row[4] == 3.0


class TestCriticalPath:
    def test_follows_ancestors_and_descendants(self, tmp_path):
        trace = build_trace(tmp_path)
        target = slowest_span(trace)
        assert target.name == "request"
        names = [r.name for r in critical_path(trace, target)]
        assert names[0] == "request"
        assert "subop" in names
        assert "leaf" in names

    def test_empty_trace(self, tmp_path):
        path = str(tmp_path / "empty.jsonl")
        open(path, "w").close()
        trace = load_trace(path)
        assert slowest_span(trace) is None
        assert critical_path(trace) == []


class TestHotspots:
    def test_event_count_fallback(self, tmp_path):
        """Count-ranked (label, count, share) rows, ties by label."""
        assert hotspots(build_trace(tmp_path)) == [
            ("leaf", 1, 0.5), ("start-subop", 1, 0.5)]

    def test_profile_based(self, tmp_path):
        """The loop profiler being attached changes no row."""
        rows = hotspots(build_trace(tmp_path, profiled=True))
        assert rows == hotspots(build_trace(tmp_path))
        assert abs(sum(share for _label, _count, share in rows) - 1.0) < 1e-9
        assert hotspots(build_trace(tmp_path), top=1) == rows[:1]


class TestRender:
    def test_all_sections_present(self, tmp_path):
        trace = build_trace(tmp_path, profiled=True)
        report = render_text(trace)
        assert "== Span latency (simulated time) ==" in report
        assert "== Critical path of slowest span: request" in report
        assert "== Trace hotspots by event label ==" in report
        assert "meta:" not in report

    def test_every_section_is_in_every_rendering(self, tmp_path):
        trace = build_trace(tmp_path, profiled=True)
        trace.sampling = {"rate": 0.5, "traces_seen": 2, "traces_kept": 1,
                          "spans_kept": 3, "spans_discarded": 1,
                          "kept_by_reason": {"slow": 1},
                          "late_after_grace": 2}
        doc = Document(sections=trace_sections(trace))
        assert [s.heading for s in doc.sections] == [
            "Span latency (simulated time)",
            "Critical path of slowest span: request (3.00000 s)",
            "Trace hotspots by event label", "Tail sampling"]
        _md, _html, text = assert_in_every_rendering(doc)
        assert "[span] request ← slowest" in text
        assert "1/2 traces kept at rate 0.5 (3 spans kept, 1 discarded)" \
            "; kept by reason: slow=1" in text
        assert "WARNING: 0 exemplar pins missed, 2 flagged spans" in text

    def test_spans_only_trace_says_shares_are_counts(self, tmp_path):
        """Every trace's hotspot table is counts and count shares, and
        the report is the same bytes with the profiler on or off."""
        report = render_text(build_trace(tmp_path))
        assert "label        count  share" in report
        assert "leaf         1      50.0%" in report
        assert "wall" not in report
        assert report == render_text(build_trace(tmp_path, profiled=True))

    def test_render_empty(self, tmp_path):
        path = str(tmp_path / "empty.jsonl")
        open(path, "w").close()
        report = render_text(load_trace(path))
        assert "(no spans recorded)" in report
        assert "(no events recorded)" in report


class TestDroppedSpans:
    def build_wrapped(self, tmp_path):
        sim = Simulator(seed=1)
        tracer = sim.enable_tracing(capacity=2, trace_events=False)
        for i in range(7):
            with tracer.trace(f"op{i}"):
                sim.now += 1.0
        path = str(tmp_path / "wrapped.jsonl")
        tracer.export_jsonl(path)
        return load_trace(path)

    def test_loader_surfaces_drop_count(self, tmp_path):
        trace = self.build_wrapped(tmp_path)
        assert trace.dropped == 5
        assert len(trace.spans()) == 2

    def test_render_warns_on_truncation(self, tmp_path):
        trace = self.build_wrapped(tmp_path)
        report = render_text(trace)
        assert report.startswith("WARNING: 5 spans dropped")
        assert "truncated" in report
        assert "evicted by kind: span=5" in report
        assert "evicted by name: op0=1, op1=1, op2=1, op3=1, op4=1" in report
        assert_in_every_rendering(Document(sections=trace_sections(trace)))

    def test_complete_trace_has_no_warning(self, tmp_path):
        report = render_text(build_trace(tmp_path))
        assert "WARNING" not in report


class TestReportJson:
    def test_schema(self, tmp_path):
        from repro.obs.report import report_json

        doc = report_json(build_trace(tmp_path, profiled=True))
        assert doc["spans"] == 3
        assert doc["events"] == 2
        assert doc["dropped"] == 0
        names = [row["name"] for row in doc["span_table"]]
        assert names == ["request", "subop", "fast"]
        assert doc["span_table"][0]["mean_s"] == 3.0
        assert doc["critical_path"][0]["name"] == "request"
        assert doc["hotspots"] == [
            {"label": "leaf", "count": 1, "share": 0.5},
            {"label": "start-subop", "count": 1, "share": 0.5}]
        assert "meta" not in doc
        assert doc == report_json(build_trace(tmp_path))

    def test_dropped_visible_in_json(self, tmp_path):
        from repro.obs.report import report_json

        trace = TestDroppedSpans().build_wrapped(tmp_path)
        assert report_json(trace)["dropped"] == 5

    def test_json_serializable(self, tmp_path):
        import json

        from repro.obs.report import report_json

        doc = report_json(build_trace(tmp_path, profiled=True))
        json.dumps(doc, sort_keys=True)
