"""Control plane under the chaos scenario: acted-on alerts, convergence,
re-registration, and a byte-identical decision log per seed."""

from repro.workloads.chaos import NUM_LOADS, run_chaos

# Sim-seconds from an alert firing to its resolution, controller on.
CONVERGENCE_BUDGET_S = 30.0


class TestControllerUnderChurn:
    def test_controller_acts_and_world_survives(self):
        world, plan, results, errors = run_chaos(101, controller=True)
        ctl = world.controller
        # The run still degrades gracefully with the controller active.
        assert not errors
        assert len(results) == NUM_LOADS
        assert world.attic_fully_redundant()
        # The controller actually did something.
        assert ctl.metrics.counters["actions_executed"].value > 0
        assert ctl.metrics.counters["messages_sent"].value > 0

    def test_every_fired_alert_maps_to_a_decision(self):
        world, _plan, _results, _errors = run_chaos(101, controller=True)
        ctl = world.controller
        alerts = [e for e in world.slo_monitor.events
                  if e["state"] == "firing"]
        assert alerts, "scenario fired no alerts; nothing was exercised"
        for alert in alerts:
            matching = [d for d in ctl.decisions()
                        if d["trigger"] == f"alert:{alert['slo']}"
                        and d["t"] == alert["t"]]
            assert matching, f"alert {alert['slo']}@{alert['t']} unhandled"

    def test_convergence_measured_for_resolved_alerts(self):
        world, _plan, _results, _errors = run_chaos(101, controller=True)
        ctl = world.controller
        conv = ctl.convergences()
        assert conv, "no alert converged during the run"
        for record in conv:
            assert 0 < record["convergence_s"] <= CONVERGENCE_BUDGET_S
            assert record["fired_t"] < record["t"]
        assert (world.controller.metrics.histograms[
            "convergence_seconds"].count == len(conv))

    def test_quarantine_excludes_peer_from_assignments(self):
        world, _plan, _results, _errors = run_chaos(101, controller=True)
        quarantined = [p for p, info in world.provider.peers.items()
                       if info.quarantines > 0]
        assert quarantined, "the rerank rule never quarantined anyone"
        executed = [d for d in world.controller.decisions("executed")
                    if d["action"] == "nocdn.quarantine"]
        assert {d["target"] for d in executed} == set(quarantined)

    def test_crashed_hpops_reregister(self):
        world, plan, _results, _errors = run_chaos(101, controller=True)
        crashed = {c.node for c in plan.node_crashes()}
        assert crashed
        rereg = [d for d in world.controller.decisions("executed")
                 if d["action"] == "naming.reregister"]
        # Every crash that restarted produced a re-registration, and the
        # zone serves every appliance's record afterwards.
        assert {d["target"] for d in rereg} >= crashed
        for hpop in world.hpops:
            assert world.zone.resolve(f"{hpop.host.name}.home").address \
                == hpop.host.address

    def test_same_seed_byte_identical_decision_log(self, tmp_path):
        w1, _p1, _r1, _e1 = run_chaos(101, controller=True)
        w2, _p2, _r2, _e2 = run_chaos(101, controller=True)
        w1.controller.export_jsonl(str(tmp_path / "a.jsonl"))
        w2.controller.export_jsonl(str(tmp_path / "b.jsonl"))
        a = (tmp_path / "a.jsonl").read_bytes()
        assert a == (tmp_path / "b.jsonl").read_bytes()
        assert a  # decisions actually happened

    def test_different_seed_different_decisions(self, tmp_path):
        w1, _p1, _r1, _e1 = run_chaos(101, controller=True)
        w2, _p2, _r2, _e2 = run_chaos(202, controller=True)
        w1.controller.export_jsonl(str(tmp_path / "a.jsonl"))
        w2.controller.export_jsonl(str(tmp_path / "b.jsonl"))
        assert (tmp_path / "a.jsonl").read_bytes() \
            != (tmp_path / "b.jsonl").read_bytes()

    def test_controller_off_run_unperturbed(self, tmp_path):
        """The controller import/wiring must not change the base run:
        the PR-3 fault log stays byte-identical with telemetry only."""
        run_chaos(101, tmp_path / "plain.jsonl")
        run_chaos(101, tmp_path / "telemetry.jsonl", telemetry=True)
        assert (tmp_path / "plain.jsonl").read_bytes() \
            == (tmp_path / "telemetry.jsonl").read_bytes()
