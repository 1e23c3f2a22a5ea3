"""Event-loop profiler: attribution, derived ratios, flamegraph export."""

import pytest

from repro.obs.profile import LabelStat, LoopProfiler
from repro.sim.engine import Simulator


class FakeEvent:
    def __init__(self, label, callback, time=0.0):
        self.label = label
        self.callback = callback
        self.time = time


def named_callback():
    pass


class TestRecording:
    def test_attributes_wall_time_to_label_and_callback(self):
        sim = Simulator()
        prof = LoopProfiler(sim)
        prof.record(FakeEvent("net.deliver", named_callback, 1.0), 0.002)
        prof.record(FakeEvent("net.deliver", named_callback, 2.0), 0.004)
        prof.record(FakeEvent("attic.repair", named_callback, 3.0), 0.010)

        assert prof.events == 3
        assert prof.wall_seconds == pytest.approx(0.016)
        stat = prof.stats["net.deliver"]
        assert stat.count == 2
        assert stat.wall_seconds == pytest.approx(0.006)
        assert stat.mean_us == pytest.approx(3000.0)
        assert stat.callbacks["named_callback"] == [2, pytest.approx(0.006)]

    def test_anonymous_callables_get_placeholder(self):
        sim = Simulator()
        prof = LoopProfiler(sim)

        class CallableThing:
            def __call__(self):
                pass

        prof.record(FakeEvent("x", CallableThing(), 1.0), 0.001)
        assert "<callable>" in prof.stats["x"].callbacks

    def test_empty_label_stat(self):
        assert LabelStat("x").mean_us == 0.0


class TestDerived:
    def test_wall_sim_ratio_tracks_event_times(self):
        sim = Simulator()
        sim.now = 5.0
        prof = LoopProfiler(sim)  # sim time starts counting at 5.0
        prof.record(FakeEvent("a", named_callback, 7.0), 0.5)
        prof.record(FakeEvent("a", named_callback, 15.0), 0.5)
        assert prof.sim_seconds == pytest.approx(10.0)
        assert prof.wall_sim_ratio == pytest.approx(0.1)

    def test_zero_sim_time_safe(self):
        prof = LoopProfiler(Simulator())
        assert prof.wall_sim_ratio == 0.0
        assert prof.events_per_second == 0.0
        prof.record(FakeEvent("a", named_callback, 0.0), 0.25)
        assert prof.wall_sim_ratio == 0.0  # same-timestamp burst
        assert prof.events_per_second == pytest.approx(4.0)

    def test_top_ranks_by_wall_time(self):
        prof = LoopProfiler(Simulator())
        prof.record(FakeEvent("cheap", named_callback, 1.0), 0.001)
        prof.record(FakeEvent("dear", named_callback, 2.0), 0.100)
        assert [s.label for s in prof.top(5)] == ["dear", "cheap"]
        assert [s.label for s in prof.top(1)] == ["dear"]

    def test_render_mentions_hot_label(self):
        prof = LoopProfiler(Simulator())
        prof.record(FakeEvent("hot.path", named_callback, 1.0), 0.05)
        text = prof.render()
        assert "hot.path" in text
        assert "wall/sim ratio" in text


class TestFlamegraphExport:
    def test_collapsed_stack_format(self):
        prof = LoopProfiler(Simulator())
        prof.record(FakeEvent("attic.repair.shard", named_callback, 1.0),
                    0.0025)
        [line] = prof.collapsed_stacks()
        stack, value = line.rsplit(" ", 1)
        assert stack == "sim;attic;repair;shard;named_callback"
        assert value == "2500"  # integer microseconds

    def test_tiny_samples_round_up_to_one(self):
        prof = LoopProfiler(Simulator())
        prof.record(FakeEvent("x", named_callback, 1.0), 1e-9)
        [line] = prof.collapsed_stacks()
        assert line.endswith(" 1")

    def test_export_file(self, tmp_path):
        prof = LoopProfiler(Simulator())
        prof.record(FakeEvent("a.b", named_callback, 1.0), 0.001)
        prof.record(FakeEvent("c", named_callback, 2.0), 0.002)
        path = tmp_path / "prof.collapsed"
        assert prof.export_collapsed(str(path)) == 2
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert all(line.startswith("sim;") for line in lines)

    def test_to_dict_summary(self):
        prof = LoopProfiler(Simulator())
        prof.record(FakeEvent("a", named_callback, 1.0), 0.001)
        d = prof.to_dict()
        assert d["events"] == 1
        assert d["labels"]["a"]["count"] == 1
        assert set(d) >= {"wall_seconds", "sim_seconds", "wall_sim_ratio",
                          "events_per_second"}


class TestEngineIntegration:
    def test_enable_profiling_observes_run(self):
        sim = Simulator(seed=1)
        prof = sim.enable_profiling()
        assert sim.profiler is prof
        assert sim.enable_profiling() is prof  # idempotent
        for i in range(10):
            sim.schedule(0.1 * (i + 1), lambda: None, label="tick")
        sim.run()
        assert prof.events == 10
        assert prof.stats["tick"].count == 10
        assert prof.sim_seconds == pytest.approx(1.0)
        assert prof.wall_seconds > 0
        assert prof.collapsed_stacks()

    def test_disable_detaches_but_keeps_stats(self):
        sim = Simulator(seed=1)
        prof = sim.enable_profiling()
        sim.schedule(1.0, lambda: None, label="tick")
        sim.run()
        sim.disable_profiling()
        assert sim.profiler is None
        assert prof.events == 1  # readable after detach
        sim.schedule(1.0, lambda: None, label="tick")
        sim.run()
        assert prof.events == 1  # no longer recording

    def test_profiler_composes_with_tracer(self):
        sim = Simulator(seed=1)
        tracer = sim.enable_tracing()
        prof = sim.enable_profiling()
        sim.schedule(1.0, lambda: None, label="tick")
        sim.run()
        assert prof.events == 1
        assert tracer.events_traced == 1
