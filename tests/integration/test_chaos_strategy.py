"""Chaos x collaborative caching: churn + sharded placement + control.

The sharded strategy gives every object one home peer; when churn
kills or the controller quarantines that home, its shard range must
re-home to ring successors with no migration step — computed against
the live set at the next request. These tests pin that the combined
system stays correct under the standard 20% churn scenario: every
load completes, quarantined peers leave the directory, and the whole
run (fault log + decision log) is byte-identical per seed.
"""

import pytest

from repro.workloads.chaos import (
    CHURN_FRACTION,
    NUM_LOADS,
    run_chaos,
)


def run_chaos_sharded(seed, tmp_path, tag):
    # flaps=3: repeat link offenders push client failure rates over
    # the SLO so the controller's quarantine rule actually fires.
    world, plan, results, errors = run_chaos(
        seed, export_path=tmp_path / f"faults-{tag}.jsonl",
        fraction=CHURN_FRACTION, controller=True, strategy="sharded",
        flaps=3)
    world.controller.export_jsonl(str(tmp_path / f"control-{tag}.jsonl"))
    return world, plan, results, errors


class TestChaosWithShardedStrategy:
    def test_all_loads_complete_through_rehoming(self, tmp_path):
        world, plan, results, errors = run_chaos_sharded(101, tmp_path, "a")
        assert plan.node_crashes()  # churn actually did damage
        assert not errors, f"page loads failed: {errors}"
        assert len(results) == NUM_LOADS
        for result in results:
            assert result.total_bytes > 0
            assert not result.corrupted
        # The strategy really drove placement: peers declined to cache
        # objects they do not own, so holders are (at most) unique per
        # object at any instant outside a churn handoff.
        peers = [h.service("nocdn-peer") for h in world.hpops]
        cached_total = sum(
            len(p.signup_for("news.example").cache) for p in peers)
        object_count = sum(
            len(list(world.catalog.page(f"/page{i}").all_objects()))
            for i in range(2))
        assert 0 < cached_total <= 2 * object_count

    def test_quarantined_home_leaves_the_directory(self, tmp_path):
        world, _plan, _results, _errors = \
            run_chaos_sharded(101, tmp_path, "a")
        quarantines = sum(info.quarantines
                          for info in world.provider.peers.values())
        assert quarantines > 0, "controller never quarantined a peer"
        directory = world.provider.directory
        # No quarantined-right-now peer is advertised as a holder.
        now = world.sim.now
        quarantined = {pid for pid, info in world.provider.peers.items()
                       if now < info.quarantined_until}
        for (_site, _name), holders in directory.entries().items():
            assert not (set(holders) & quarantined)

    def test_serves_never_hit_origin_5xx(self, tmp_path):
        world, _plan, results, errors = run_chaos_sharded(101, tmp_path, "a")
        assert not errors
        # Client-visible failovers are fine (that is the failover
        # machinery working); what must not happen is a load falling
        # all the way to direct origin pages because re-homing failed.
        assert world.provider.direct_pages_served == 0
        assert sum(r.bytes_from_peers for r in results) > 0

    def test_same_seed_byte_identical_exports(self, tmp_path):
        run_chaos_sharded(101, tmp_path, "a")
        run_chaos_sharded(101, tmp_path, "b")
        for kind in ("faults", "control"):
            a = (tmp_path / f"{kind}-a.jsonl").read_bytes()
            b = (tmp_path / f"{kind}-b.jsonl").read_bytes()
            assert a == b, f"{kind} log diverged for same seed"
            assert a  # non-empty: the scenario actually fired

    @pytest.mark.parametrize("strategy", ["naive", "replicate-hot"])
    def test_other_strategies_survive_churn_too(self, strategy, tmp_path):
        _world, _plan, results, errors = run_chaos(
            101, export_path=tmp_path / "f.jsonl",
            fraction=CHURN_FRACTION, strategy=strategy)
        assert not errors
        assert len(results) == NUM_LOADS
