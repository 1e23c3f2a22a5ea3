"""Tracer core semantics: spans, context propagation, export."""

import json

import pytest

from repro.obs.records import read_jsonl
from repro.obs.trace import NULL_SPAN, NULL_TRACER, Span, Tracer
from repro.sim.engine import Simulator


def traced_sim(seed=0, **kwargs):
    sim = Simulator(seed=seed)
    tracer = sim.enable_tracing(**kwargs)
    return sim, tracer


class TestNullTracer:
    def test_disabled_by_default(self):
        sim = Simulator()
        assert sim.tracer is NULL_TRACER
        assert not sim.tracer.enabled

    def test_null_span_everywhere(self):
        span = NULL_TRACER.start_span("x", a=1)
        assert span is NULL_SPAN
        span.set(b=2)
        span.finish(c=3)
        assert NULL_TRACER.spans() == []
        with NULL_TRACER.trace("y") as inner:
            assert inner is NULL_SPAN
        assert NULL_TRACER.current is None

    def test_disable_tracing_returns_to_null(self):
        sim, tracer = traced_sim()
        assert sim.tracer is tracer
        sim.disable_tracing()
        assert sim.tracer is NULL_TRACER

    def test_enable_is_idempotent(self):
        sim, tracer = traced_sim()
        assert sim.enable_tracing() is tracer


class TestSpans:
    def test_trace_context_records_duration(self):
        sim, tracer = traced_sim()
        with tracer.trace("op", key="v") as span:
            sim.now = 2.5  # clock moves inside the operation
        assert span.end == 2.5
        [rec] = tracer.spans()
        assert rec.name == "op"
        assert rec.duration == 2.5
        assert rec.attrs == {"key": "v"}

    def test_nested_spans_get_parents(self):
        sim, tracer = traced_sim()
        with tracer.trace("outer") as outer:
            with tracer.trace("inner") as inner:
                assert inner.parent_id == outer.span_id
        assert tracer.current is None

    def test_finish_is_idempotent(self):
        sim, tracer = traced_sim()
        span = tracer.start_span("once")
        span.finish()
        span.finish()
        assert len(tracer.spans()) == 1

    def test_unfinished_span_not_recorded(self):
        sim, tracer = traced_sim()
        tracer.start_span("open-forever")
        assert tracer.spans() == []

    def test_explicit_parent_overrides_current(self):
        sim, tracer = traced_sim()
        root = tracer.start_span("root")
        with tracer.trace("ambient"):
            child = tracer.start_span("child", parent=root)
        assert child.parent_id == root.span_id

    def test_parent_none_forces_root(self):
        sim, tracer = traced_sim()
        with tracer.trace("ambient"):
            orphan = tracer.start_span("orphan", parent=None)
        assert orphan.parent_id is None


class TestEventPropagation:
    def test_event_inherits_scheduling_context(self):
        sim, tracer = traced_sim()
        seen = []
        with tracer.trace("request") as span:
            sim.schedule(1.0, lambda: seen.append(tracer.current.parent_id),
                         label="work")
        sim.run()
        # The event mark's parent is the request span.
        assert seen == [span.span_id]
        marks = [s for s in tracer.spans() if s.kind == "event"]
        assert len(marks) == 1
        assert marks[0].parent_id == span.span_id

    def test_chained_events_keep_causality(self):
        sim, tracer = traced_sim()

        def first():
            sim.schedule(1.0, second, label="second")

        def second():
            pass

        with tracer.trace("root") as root:
            sim.schedule(1.0, first, label="first")
        sim.run()
        marks = {s.name: s for s in tracer.spans() if s.kind == "event"}
        assert marks["first"].parent_id == root.span_id
        assert marks["second"].parent_id == marks["first"].span_id

    def test_span_finished_in_later_event(self):
        sim, tracer = traced_sim()
        span = tracer.start_span("async-op")
        sim.schedule(3.0, lambda: span.finish(), label="completion")
        sim.run()
        [rec] = [s for s in tracer.spans() if s.kind == "span"]
        assert rec.start == 0.0 and rec.end == 3.0

    def test_event_marks_can_be_disabled(self):
        sim, tracer = traced_sim(trace_events=False)
        with tracer.trace("root") as root:
            sim.schedule(1.0, lambda: tracer.start_span("child").finish(),
                         label="work")
        sim.run()
        kinds = {s.kind for s in tracer.spans()}
        assert kinds == {"span"}
        child = [s for s in tracer.spans() if s.name == "child"][0]
        # Without marks, the child chains directly to the scheduling span.
        assert child.parent_id == root.span_id

    def test_current_cleared_between_events(self):
        sim, tracer = traced_sim()
        sim.schedule(1.0, lambda: None, label="a")
        sim.run()
        assert tracer.current is None


class TestLiteMode:
    """trace_events=False: the engine inlines the per-event hook to
    context propagation only — both in step() and in the batched
    run()/run_until() loops."""

    def test_lite_flag(self):
        _sim, tracer = traced_sim(trace_events=False)
        assert tracer.lite
        _sim2, full = traced_sim()
        assert not full.lite

    def test_context_propagates_through_run(self):
        sim, tracer = traced_sim(trace_events=False)
        with tracer.trace("root") as root:
            sim.schedule(1.0, lambda: tracer.start_span("child").finish(),
                         label="work")
        sim.run()
        child = [s for s in tracer.spans() if s.name == "child"][0]
        assert child.parent_id == root.span_id
        assert child.trace_id == root.trace_id

    def test_context_propagates_through_run_until(self):
        sim, tracer = traced_sim(trace_events=False)

        def chain():
            tracer.start_span("hop1").finish()
            sim.schedule(1.0, lambda: tracer.start_span("hop2").finish(),
                         label="later")

        with tracer.trace("root") as root:
            sim.schedule(1.0, chain, label="work")
        sim.run_until(10.0)
        by_name = {s.name: s for s in tracer.spans()}
        assert by_name["hop1"].trace_id == root.trace_id
        assert by_name["hop2"].trace_id == root.trace_id

    def test_current_cleared_and_events_counted(self):
        sim, tracer = traced_sim(trace_events=False)
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None, label="a")
        sim.run()
        assert tracer.current is None
        assert tracer.events_traced == 5

    def test_no_marks_and_no_profile(self):
        sim, tracer = traced_sim(trace_events=False)
        with tracer.trace("root"):
            sim.schedule(1.0, lambda: None, label="work")
        sim.run()
        assert all(s.kind == "span" for s in tracer.spans())
        assert not hasattr(tracer, "profile")

    def test_lite_matches_full_span_tree(self):
        """The same seeded workload yields the same span parentage in
        lite and full mode — lite drops marks, not causality."""
        def run(**kwargs):
            sim = Simulator(seed=3)
            tracer = sim.enable_tracing(**kwargs)

            def work(i):
                span = tracer.start_span(f"job{i}")
                sim.schedule(0.5, lambda: span.finish(), label="done")

            with tracer.trace("root"):
                for i in range(3):
                    sim.schedule(float(i + 1), lambda i=i: work(i),
                                 label="work")
            sim.run()
            return {(s.name, s.trace_id) for s in tracer.spans()
                    if s.kind == "span"}

        full = run()
        lite = run(trace_events=False)
        assert lite == full


class TestRingBuffer:
    def test_capacity_bounds_and_counts_drops(self):
        sim, tracer = traced_sim(capacity=4)
        for i in range(10):
            tracer.start_span(f"s{i}").finish()
        assert len(tracer.spans()) == 4
        assert tracer.dropped == 6
        assert [s.name for s in tracer.spans()] == ["s6", "s7", "s8", "s9"]

    def test_bad_capacity_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.enable_tracing(capacity=0)


class TestExport:
    def test_jsonl_roundtrip(self, tmp_path):
        sim, tracer = traced_sim()
        with tracer.trace("op", n=3):
            sim.schedule(1.0, lambda: None, label="tick")
        sim.run()
        path = str(tmp_path / "t.jsonl")
        written = tracer.export_jsonl(path)
        records = list(read_jsonl(path))
        assert written == len(records) == len(tracer.spans())
        kinds = {r["kind"] for r in records}
        assert kinds == {"span", "event"}
        op = [r for r in records if r["name"] == "op"][0]
        assert op["attrs"] == {"n": 3}

    def test_profile_records_only_when_asked(self, tmp_path):
        """Nobody can ask any more: the tracer holds no host time, so
        no export carries a ``profile``/``meta`` record — plain,
        wrapped or sampled, with the loop profiler attached or not."""
        path = str(tmp_path / "t.jsonl")

        def kinds(sampled=False, **kwargs):
            sim, tracer = traced_sim(**kwargs)
            sim.enable_profiling()
            if sampled:
                tracer.enable_tail_sampling(rate=1.0)
            for i in range(4):
                with tracer.trace(f"op{i}"):
                    sim.schedule(1.0, lambda: None, label="tick")
            sim.run()
            tracer.export_jsonl(path)
            with pytest.raises(TypeError):
                tracer.export_jsonl(path, include_profile=True)
            return {r["kind"] for r in read_jsonl(path)}

        assert kinds() == {"span", "event"}
        assert kinds(capacity=2) == {"event", "dropped"}
        assert kinds(sampled=True, trace_events=False) == {"span", "sampling"}
        with pytest.raises(TypeError):
            Tracer(Simulator(), profile_events=False)

    def test_same_seed_exports_identical(self, tmp_path):
        def run(path):
            sim, tracer = traced_sim(seed=42)

            def work():
                with tracer.trace("inner", t=sim.now):
                    pass

            with tracer.trace("outer"):
                for i in range(5):
                    sim.schedule(0.5 * (i + 1), work, label=f"w{i}")
            sim.run()
            tracer.export_jsonl(path)

        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        run(a)
        run(b)
        assert open(a, "rb").read() == open(b, "rb").read()


class TestProfile:
    def test_wall_clock_profile_by_label(self):
        """Host time per label has one owner, the loop profiler; it
        counts what the tracer counts."""
        sim, tracer = traced_sim()
        profiler = sim.enable_profiling()
        sim.schedule(1.0, lambda: None, label="alpha")
        sim.schedule(2.0, lambda: None, label="alpha")
        sim.schedule(3.0, lambda: None, label="beta")
        sim.run()
        assert profiler.stats["alpha"].count == 2
        assert profiler.stats["beta"].count == 1
        assert profiler.events == tracer.events_traced == 3
        assert profiler.wall_seconds > 0
        assert profiler.events_per_second > 0
        for gone in ("profile", "wall_seconds", "events_per_second"):
            assert not hasattr(tracer, gone)


class TestSpansDropped:
    def test_counter_and_back_compat_alias(self):
        sim, tracer = traced_sim(capacity=2)
        for i in range(5):
            tracer.start_span(f"s{i}").finish()
        assert tracer.spans_dropped == 3
        assert tracer.dropped == 3  # legacy alias reads the same counter

    def test_complete_trace_exports_no_dropped_record(self, tmp_path):
        sim, tracer = traced_sim()
        tracer.start_span("only").finish()
        path = str(tmp_path / "t.jsonl")
        tracer.export_jsonl(path)
        assert all(r["kind"] != "dropped" for r in read_jsonl(path))

    def test_wrapped_trace_exports_dropped_record(self, tmp_path):
        sim, tracer = traced_sim(capacity=3)
        for i in range(8):
            tracer.start_span(f"s{i}").finish()
        path = str(tmp_path / "t.jsonl")
        tracer.export_jsonl(path)
        [record] = [r for r in read_jsonl(path) if r["kind"] == "dropped"]
        assert record["spans_dropped"] == 5
        assert record["capacity"] == 3

    def test_dropped_record_is_deterministic(self, tmp_path):
        def run(path):
            sim, tracer = traced_sim(seed=9, capacity=2)
            for i in range(6):
                with tracer.trace(f"s{i}"):
                    sim.now += 0.5
            tracer.export_jsonl(path)

        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        run(a)
        run(b)
        assert open(a, "rb").read() == open(b, "rb").read()
