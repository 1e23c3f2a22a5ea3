"""Chaos acceptance scenario: seeded 20% HPoP churn against a world
running NoCDN page serving and attic peer backup simultaneously.

Proves the headline claims of the fault-injection subsystem:

- every page load started during the churn window completes (peer
  failover / origin fallback absorb dead peers),
- the attic returns to full shard redundancy once the dust settles
  (heartbeat detection -> auto repair), and
- the same seed yields a byte-identical fault-event JSONL export.
"""

# The world itself lives in repro.workloads.chaos. ChaosWorld and
# CHURN_FRACTION are re-exported: benchmarks/platform/scenarios.py
# imports the world from this module by name.
from repro.workloads.chaos import (  # noqa: F401
    CHURN_FRACTION,
    NUM_LOADS,
    ChaosWorld,
    run_chaos,
)


class TestChaosScenario:
    def test_churn_scenario_degrades_gracefully(self, tmp_path):
        world, plan, results, errors = run_chaos(101, tmp_path / "f.jsonl")
        # The plan actually did damage.
        assert plan.node_crashes()
        assert world.injector.metrics.counters["node_crashes"].value \
            == len(plan.node_crashes())
        assert world.injector.metrics.counters["node_restarts"].value \
            == len(plan.node_crashes())
        assert world.injector.metrics.counters["link_flaps"].value == 1
        # 1) Every page load completed despite dead peers.
        assert not errors, f"page loads failed: {errors}"
        assert len(results) == NUM_LOADS
        for result in results:
            assert result.total_bytes > 0
        # 2) The attic is back at full redundancy.
        assert world.attic_fully_redundant(), (
            "attic not repaired to full redundancy")
        # Steady state: no repair loop left spinning, nothing gave up.
        assert world.owner.metrics.counters["auto_repair_gave_up"].value == 0

    def test_failovers_actually_exercised(self):
        """The scenario is only meaningful if faults hit live traffic."""
        world, _plan, results, _errors = run_chaos(101)
        failovers = (
            world.loader.metrics.counters["peer_failovers"].value
            + world.loader.metrics.counters["origin_fallbacks"].value)
        peer_failures = sum(len(r.peer_failures) for r in results)
        assert failovers > 0
        assert peer_failures > 0

    def test_same_seed_byte_identical_fault_log(self, tmp_path):
        _w1, _p1, _r1, _e1 = run_chaos(101, tmp_path / "a.jsonl")
        _w2, _p2, _r2, _e2 = run_chaos(101, tmp_path / "b.jsonl")
        a = (tmp_path / "a.jsonl").read_bytes()
        b = (tmp_path / "b.jsonl").read_bytes()
        assert a == b
        assert a  # non-empty: the plan really fired

    def test_different_seed_different_fault_log(self, tmp_path):
        run_chaos(101, tmp_path / "a.jsonl")
        run_chaos(202, tmp_path / "b.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() \
            != (tmp_path / "b.jsonl").read_bytes()

    def test_zero_churn_is_faultless_baseline(self, tmp_path):
        world, plan, results, errors = run_chaos(
            101, tmp_path / "f.jsonl", fraction=0.0)
        assert len(plan) == 0
        assert not errors
        assert len(results) == NUM_LOADS
        assert (tmp_path / "f.jsonl").read_bytes() == b""
        assert world.loader.metrics.counters["peer_failovers"].value == 0
