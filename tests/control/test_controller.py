"""Controller mechanics: routing, guards, convergence, determinism."""

import pytest

from repro.control import Controller, ControlRule, Proposal
from repro.obs.records import read_jsonl
from repro.sim.engine import Simulator


def make_controller(seed=7):
    sim = Simulator(seed=seed)
    return sim, Controller(sim)


def acting_rule(name="act", kinds=("alert",), actions=None, cooldown=0.0,
                hysteresis=1, hysteresis_window=10.0, matcher=None,
                detail=None):
    """A rule whose executions append to ``actions``."""
    actions = actions if actions is not None else []

    def propose(sig, ctl):
        def execute():
            actions.append((ctl.sim.now, sig.key))
            return {"acted": True}

        return [Proposal(target=sig.key, execute=execute,
                         detail=dict(detail or {}))]

    rule = ControlRule(name, kinds=kinds, propose=propose, matcher=matcher,
                       cooldown=cooldown, hysteresis=hysteresis,
                       hysteresis_window=hysteresis_window)
    return rule, actions


class TestRouting:
    def test_signal_routes_to_matching_rule(self):
        sim, ctl = make_controller()
        rule, actions = acting_rule(kinds=("alert",))
        ctl.add_rule(rule)
        produced = ctl.signal("alert", "some-slo", service="nocdn")
        assert actions == [(0.0, "some-slo")]
        assert [d["outcome"] for d in produced] == ["executed"]
        assert produced[0]["action"] == "act"
        assert produced[0]["trigger"] == "alert:some-slo"
        assert produced[0]["acted"] is True

    def test_kind_filter(self):
        sim, ctl = make_controller()
        rule, actions = acting_rule(kinds=("peer_dead",))
        ctl.add_rule(rule)
        ctl.signal("alert", "x")
        assert actions == []
        ctl.signal("peer_dead", "h3")
        assert actions == [(0.0, "h3")]

    def test_matcher_filter(self):
        sim, ctl = make_controller()
        rule, actions = acting_rule(
            matcher=lambda sig: sig.attrs.get("service") == "nocdn")
        ctl.add_rule(rule)
        ctl.signal("alert", "a", service="attic")
        ctl.signal("alert", "b", service="nocdn")
        assert [key for _t, key in actions] == ["b"]

    def test_duplicate_rule_name_rejected(self):
        _sim, ctl = make_controller()
        ctl.add_rule(acting_rule(name="dup")[0])
        with pytest.raises(ValueError, match="duplicate"):
            ctl.add_rule(acting_rule(name="dup")[0])

    def test_unmatched_alert_logs_observed_decision(self):
        """Acceptance contract: every fired alert maps to a decision."""
        _sim, ctl = make_controller()
        produced = ctl.signal("alert", "lonely-slo", service="dcol")
        assert len(produced) == 1
        assert produced[0]["action"] == "none"
        assert produced[0]["outcome"] == "observed"

    def test_metrics_track_execution(self):
        _sim, ctl = make_controller()
        rule, _actions = acting_rule(cooldown=100.0)
        ctl.add_rule(rule)
        ctl.signal("alert", "x")
        ctl.signal("alert", "x")  # inside cooldown
        ctl.count_message(3)
        assert ctl.metrics.counters["signals_seen"].value == 2
        assert ctl.metrics.counters["actions_executed"].value == 1
        assert ctl.metrics.counters["actions_suppressed"].value == 1
        assert ctl.metrics.counters["messages_sent"].value == 3
        assert ctl.metrics.counters["actions_act"].value == 1


class TestCooldown:
    def test_cooldown_suppresses_then_releases(self):
        sim, ctl = make_controller()
        rule, actions = acting_rule(cooldown=5.0)
        ctl.add_rule(rule)
        ctl.signal("alert", "x")
        sim.run_until(2.0)
        produced = ctl.signal("alert", "x")
        assert produced[0]["outcome"] == "cooldown"
        assert len(actions) == 1
        sim.run_until(5.5)
        produced = ctl.signal("alert", "x")
        assert produced[0]["outcome"] == "executed"
        assert len(actions) == 2

    def test_cooldown_is_per_target(self):
        sim, ctl = make_controller()
        actions = []

        def propose(sig, ctl):
            def exec_for(t):
                return lambda: actions.append(t) or None

            return [Proposal(target=t, execute=exec_for(t))
                    for t in sig.attrs["targets"]]

        ctl.add_rule(ControlRule("multi", kinds=("alert",), propose=propose,
                                 cooldown=10.0))
        ctl.signal("alert", "x", targets=["a", "b"])
        produced = ctl.signal("alert", "x", targets=["a", "c"])
        # "a" is cooling down; "c" is a fresh target.
        assert [d["outcome"] for d in produced] == ["cooldown", "executed"]
        assert actions == ["a", "b", "c"]


class TestHysteresis:
    def test_requires_n_signals(self):
        sim, ctl = make_controller()
        rule, actions = acting_rule(hysteresis=3, hysteresis_window=10.0)
        ctl.add_rule(rule)
        p1 = ctl.signal("alert", "x")
        p2 = ctl.signal("alert", "x")
        p3 = ctl.signal("alert", "x")
        assert [p[0]["outcome"] for p in (p1, p2, p3)] == [
            "hysteresis", "hysteresis", "executed"]
        assert len(actions) == 1

    def test_window_gap_resets_count(self):
        sim, ctl = make_controller()
        rule, actions = acting_rule(hysteresis=2, hysteresis_window=5.0)
        ctl.add_rule(rule)
        ctl.signal("alert", "x")
        sim.run_until(20.0)  # > window: the streak evaporates
        produced = ctl.signal("alert", "x")
        assert produced[0]["outcome"] == "hysteresis"
        produced = ctl.signal("alert", "x")
        assert produced[0]["outcome"] == "executed"
        assert len(actions) == 1

    def test_hysteresis_tracked_per_key(self):
        sim, ctl = make_controller()
        rule, actions = acting_rule(hysteresis=2)
        ctl.add_rule(rule)
        ctl.signal("alert", "x")
        produced = ctl.signal("alert", "y")  # different key: own streak
        assert produced[0]["outcome"] == "hysteresis"
        produced = ctl.signal("alert", "x")
        assert produced[0]["outcome"] == "executed"

    def test_validation(self):
        with pytest.raises(ValueError):
            ControlRule("bad", kinds=("alert",),
                        propose=lambda s, c: [], hysteresis=0)
        with pytest.raises(ValueError):
            ControlRule("bad", kinds=("alert",),
                        propose=lambda s, c: [], cooldown=-1.0)


class TestConvergence:
    def test_alert_resolve_measures_convergence(self):
        sim, ctl = make_controller()
        rule, _actions = acting_rule()
        ctl.add_rule(rule)
        ctl.on_slo_event({"t": 0.0, "state": "firing", "slo": "s",
                          "service": "nocdn", "objective": 0.9})
        sim.run_until(6.5)
        ctl.on_slo_event({"t": 6.5, "state": "resolved", "slo": "s",
                          "service": "nocdn", "objective": 0.9})
        conv = ctl.convergences()
        assert len(conv) == 1
        assert conv[0]["slo"] == "s"
        assert conv[0]["convergence_s"] == pytest.approx(6.5)
        assert conv[0]["decisions"] == 1
        assert ctl.metrics.histograms["convergence_seconds"].count == 1
        assert ctl.metrics.gauges["open_alerts"].read() == 0.0

    def test_run_end_resolve_is_not_convergence(self):
        sim, ctl = make_controller()
        ctl.on_slo_event({"t": 0.0, "state": "firing", "slo": "s",
                          "service": "x", "objective": 0.9})
        ctl.on_slo_event({"t": 0.0, "state": "resolved", "slo": "s",
                          "service": "x", "objective": 0.9,
                          "at_run_end": True})
        assert ctl.convergences() == []
        assert ctl.metrics.histograms["convergence_seconds"].count == 0

    def test_resolve_without_fire_is_ignored(self):
        _sim, ctl = make_controller()
        ctl.on_slo_event({"t": 1.0, "state": "resolved", "slo": "ghost",
                          "service": "x", "objective": 0.9})
        assert ctl.convergences() == []


class TestAvailability:
    def test_tracks_down_intervals(self):
        sim, ctl = make_controller()
        ctl.signal("peer_dead", "h1")
        sim.run_until(4.0)
        ctl.signal("peer_alive", "h1")
        sim.run_until(10.0)
        # 4 seconds down in the trailing 10.
        assert ctl.availability("h1", 10.0) == pytest.approx(0.6)
        assert ctl.availability("h1", 2.0) == 1.0  # outage aged out
        assert ctl.availability("unknown", 10.0) == 1.0

    def test_open_interval_counts_to_now(self):
        sim, ctl = make_controller()
        sim.run_until(5.0)
        ctl.signal("peer_dead", "h1")
        sim.run_until(10.0)
        assert ctl.availability("h1", 10.0) == pytest.approx(0.5)


class TestExport:
    def test_jsonl_roundtrip_and_determinism(self, tmp_path):
        def run(path):
            sim, ctl = make_controller(seed=3)
            rule, _ = acting_rule(cooldown=1.0)
            ctl.add_rule(rule)
            ctl.on_slo_event({"t": 0.0, "state": "firing", "slo": "s",
                              "service": "nocdn", "objective": 0.9})
            sim.run_until(2.0)
            ctl.on_slo_event({"t": 2.0, "state": "resolved", "slo": "s",
                              "service": "nocdn", "objective": 0.9})
            ctl.signal("peer_dead", "h2")
            assert ctl.export_jsonl(str(path)) == len(ctl.events)
            return ctl

        ctl = run(tmp_path / "a.jsonl")
        run(tmp_path / "b.jsonl")
        a = (tmp_path / "a.jsonl").read_bytes()
        assert a == (tmp_path / "b.jsonl").read_bytes()
        assert a
        records = list(read_jsonl(str(tmp_path / "a.jsonl")))
        assert records == ctl.events
        assert {r["event"] for r in records} == {"decision", "converged"}
