"""Backup strategy and offline-reconciliation tests."""

import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attic.backup import (
    ColdCloudBackup,
    ErasureCodedBackup,
    FailureState,
    LocalDiskBackup,
    NoBackup,
    PeerReplication,
    analytic_availability,
    repair_placement,
    shards_lost,
    simulate_availability,
)
from repro.attic.reconcile import OfflineWorkspace, SyncAction

PEERS = [f"home-{i}" for i in range(10)]


class TestStrategies:
    def test_no_backup_follows_home(self):
        strategy = NoBackup()
        placement = strategy.place("me", PEERS)
        assert strategy.available(placement, FailureState())
        assert not strategy.available(placement,
                                      FailureState(down_homes=frozenset({"me"})))
        assert strategy.storage_overhead() == 1.0

    def test_local_disk_recoverable_but_not_available(self):
        strategy = LocalDiskBackup()
        placement = strategy.place("me", PEERS)
        down = FailureState(down_homes=frozenset({"me"}))
        assert not strategy.available(placement, down)
        assert strategy.recoverable(placement, down)

    def test_cold_cloud_recovery_survives_home_loss(self):
        strategy = ColdCloudBackup()
        placement = strategy.place("me", PEERS)
        down = FailureState(down_homes=frozenset({"me"}))
        assert strategy.recoverable(placement, down)
        assert not strategy.recoverable(
            placement, FailureState(down_homes=frozenset({"me"}), cloud_down=True))

    def test_peer_replication_survives_owner_loss(self):
        strategy = PeerReplication(replicas=2)
        placement = strategy.place("me", PEERS)
        assert len(placement.replica_homes) == 2
        down_owner = FailureState(down_homes=frozenset({"me"}))
        assert strategy.available(placement, down_owner)
        all_down = FailureState(
            down_homes=frozenset({"me", *placement.replica_homes}))
        assert not strategy.available(placement, all_down)

    def test_peer_replication_needs_enough_peers(self):
        with pytest.raises(ValueError):
            PeerReplication(replicas=3).place("me", ["me", "a"])
        with pytest.raises(ValueError):
            PeerReplication(replicas=0)

    def test_erasure_needs_k_shards(self):
        strategy = ErasureCodedBackup(k=3, m=2)
        placement = strategy.place("me", PEERS)
        assert len(placement.shard_homes) == 5
        # Owner down, 2 shard homes down: 3 remain = k -> available.
        state = FailureState(down_homes=frozenset(
            {"me", *placement.shard_homes[:2]}))
        assert strategy.available(placement, state)
        # 3 shard homes down: only 2 remain < k -> unavailable.
        state = FailureState(down_homes=frozenset(
            {"me", *placement.shard_homes[:3]}))
        assert not strategy.available(placement, state)

    def test_repair_placement_swaps_dead_shard_homes(self):
        strategy = ErasureCodedBackup(k=3, m=2)
        placement = strategy.place("me", PEERS)
        dead = frozenset(placement.shard_homes[:2])
        state = FailureState(down_homes=dead)
        assert set(shards_lost(placement, state)) == dead
        repaired, count = repair_placement(placement, state, PEERS)
        assert count == 2
        assert not shards_lost(repaired, state)
        # Healthy homes keep their shards; replacements are fresh peers.
        assert repaired.shard_homes[2:] == placement.shard_homes[2:]
        assert not set(repaired.shard_homes) & dead
        assert len(set(repaired.shard_homes)) == len(repaired.shard_homes)
        # After repair the strategy is back to full m-loss tolerance.
        state2 = FailureState(down_homes=frozenset(
            {"me", *repaired.shard_homes[:2]}))
        assert strategy.available(repaired, state2)

    def test_repair_placement_partial_when_peers_scarce(self):
        strategy = ErasureCodedBackup(k=3, m=2)
        peers = PEERS[:6]  # 5 shard homes + 1 spare
        placement = strategy.place("me", peers)
        state = FailureState(down_homes=frozenset(placement.shard_homes[:2]))
        repaired, count = repair_placement(placement, state, peers)
        assert count == 1  # only one healthy unused peer existed
        assert len(shards_lost(repaired, state)) == 1

    def test_erasure_cheaper_than_equivalent_replication(self):
        """The classic trade: 4+2 erasure tolerates 2 losses at 2.5x
        storage; 2-replica replication tolerates 2 losses at 3x."""
        erasure = ErasureCodedBackup(k=4, m=2)
        replication = PeerReplication(replicas=2)
        assert erasure.storage_overhead() < replication.storage_overhead()


class TestAvailabilityMath:
    def test_simulated_matches_analytic(self):
        rng = random.Random(42)
        p_up = 0.9
        for strategy in (NoBackup(), PeerReplication(replicas=2),
                         ErasureCodedBackup(k=3, m=2)):
            simulated = simulate_availability(
                strategy, "me", PEERS, p_up, trials=4000, rng=rng)
            analytic = analytic_availability(strategy, p_up)
            assert simulated == pytest.approx(analytic, abs=0.03)

    def test_replication_beats_no_backup(self):
        rng = random.Random(1)
        base = simulate_availability(NoBackup(), "me", PEERS, 0.9, 2000, rng)
        replicated = simulate_availability(
            PeerReplication(2), "me", PEERS, 0.9, 2000, rng)
        assert replicated > base

    def test_simulation_is_independent_of_the_string_hash_seed(self):
        # Each run in a process of its own: one process has one hash
        # seed, so a set's iteration order cannot show within it.
        code = ("import random\n"
                "from repro.attic.backup import ErasureCodedBackup, "
                "simulate_availability\n"
                "print(repr(simulate_availability(ErasureCodedBackup(k=4, "
                "m=2), 'me', [f'home-{i}' for i in range(12)], 0.95, "
                "20000, random.Random(5))))\n")
        src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
        outputs = [subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": src,
                             "PYTHONHASHSEED": seed}).stdout
            for seed in ("1", "2")]
        assert outputs[0] and outputs[0] == outputs[1]

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            simulate_availability(NoBackup(), "me", PEERS, 1.5, 10,
                                  random.Random(0))

    @settings(max_examples=20, deadline=None)
    @given(p=st.floats(min_value=0.5, max_value=0.999))
    def test_property_analytic_ordering(self, p):
        """More redundancy never hurts availability."""
        none = analytic_availability(NoBackup(), p)
        rep1 = analytic_availability(PeerReplication(1), p)
        rep2 = analytic_availability(PeerReplication(2), p)
        assert none <= rep1 <= rep2


class TestReconciliation:
    def test_noop(self):
        ws = OfflineWorkspace()
        ws.checkout("f", attic_version=3, size=10)
        result = ws.reconcile("f", attic_version=3, attic_size=10)
        assert result.action is SyncAction.NOOP

    def test_push_local_changes(self):
        ws = OfflineWorkspace()
        ws.checkout("f", attic_version=3, size=10)
        ws.edit("f", size=20, payload="local")
        result = ws.reconcile("f", attic_version=3, attic_size=10)
        assert result.action is SyncAction.PUSH
        assert result.new_base_version == 4
        # After push, another reconcile against v4 is a no-op.
        assert ws.reconcile("f", 4, 20).action is SyncAction.NOOP

    def test_pull_remote_changes(self):
        ws = OfflineWorkspace()
        ws.checkout("f", attic_version=3, size=10, payload="old")
        result = ws.reconcile("f", attic_version=5, attic_size=30,
                              attic_payload="newer")
        assert result.action is SyncAction.PULL
        assert ws.state_of("f").payload == "newer"
        assert ws.state_of("f").base_version == 5

    def test_conflict_preserves_both(self):
        ws = OfflineWorkspace()
        ws.checkout("f", attic_version=3, size=10, payload="base")
        ws.edit("f", size=15, payload="mine")
        result = ws.reconcile("f", attic_version=4, attic_size=12,
                              attic_payload="theirs")
        assert result.action is SyncAction.CONFLICT
        assert result.conflict_copy in ws.conflict_copies
        assert ws.conflict_copies[result.conflict_copy].payload == "mine"
        assert ws.state_of("f").payload == "theirs"

    def test_edit_requires_checkout(self):
        ws = OfflineWorkspace()
        with pytest.raises(KeyError):
            ws.edit("ghost", size=1)

    def test_files_listing(self):
        ws = OfflineWorkspace()
        ws.checkout("b", 1, 1)
        ws.checkout("a", 1, 1)
        assert ws.files() == ["a", "b"]
