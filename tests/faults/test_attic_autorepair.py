"""Attic degradation path: heartbeat timeout detects dead friends and
auto-repair restores full shard redundancy with capped backoff."""

from repro.attic.backup_service import (
    MAX_REPAIR_SWEEPS,
    REPAIR_BACKOFF_BASE,
    REPAIR_BACKOFF_CAP,
    PeerBackupService,
)
from repro.attic.service import DataAtticService
from repro.hpop.core import Household, Hpop, User
from repro.net.topology import build_city
from repro.sim.engine import Simulator
from repro.util.units import kib


def build(num_friends=6, k=3, m=2, seed=17, heartbeat_interval=1.0):
    """Owner (index 0) heartbeats; friends answer pings passively."""
    sim = Simulator(seed=seed)
    city = build_city(sim, homes_per_neighborhood=num_friends + 2)
    services, hpops = [], []
    for i in range(num_friends + 1):
        home = city.neighborhoods[0].homes[i]
        hpop = Hpop(home.hpop_host, city.network,
                    Household(name=f"h{i}", users=[User("u", "p")]))
        hpop.install(DataAtticService())
        kwargs = dict(k=k, m=m)
        if i == 0:
            kwargs.update(heartbeat_interval=heartbeat_interval)
        svc = hpop.install(PeerBackupService(**kwargs))
        hpop.start()
        services.append(svc)
        hpops.append(hpop)
    owner = services[0]
    for friend in services[1:]:
        owner.add_friend(friend)
    return sim, city, owner, services, hpops


def put_file(owner, path, size):
    attic = owner.hpop.service("attic")
    parent = "/".join(path.split("/")[:-1]) or "/"
    attic.dav.tree.mkcol_recursive(parent)
    attic.dav.tree.put(path, size=size, payload="original")


def backed_up(sim, owner, path="/u0/photos.tar", size=kib(200)):
    put_file(owner, path, size)
    done = []
    owner.backup_file(path, done.append)
    sim.run_until(sim.now + 30.0)
    assert done == [True]
    return path


def holder_of_some_shard(owner, services):
    name_to_service = {s.owner_name: s for s in services}
    entry = next(iter(owner.manifest.values()))
    return name_to_service[entry.shard_holders[0]]


class TestFailureDetection:
    def test_dead_friend_declared_after_timeout(self):
        sim, _city, owner, services, hpops = build()
        backed_up(sim, owner)
        victim = holder_of_some_shard(owner, services)
        crash_at = sim.now
        victim.hpop.crash()
        sim.run_until(sim.now + 10.0)
        assert owner.metrics.counters["peers_declared_dead"].value == 1
        assert not owner.monitor.is_alive(victim.owner_name)
        # Detection is bounded by timeout (3x interval) + one sweep.
        assert sim.now - crash_at >= 3.0

    def test_restarted_friend_recovers(self):
        sim, _city, owner, services, _hpops = build()
        backed_up(sim, owner)
        victim = holder_of_some_shard(owner, services)
        victim.hpop.crash()
        sim.run_until(sim.now + 10.0)
        victim.hpop.restart()
        sim.run_until(sim.now + 10.0)
        assert owner.metrics.counters["peers_recovered"].value == 1
        assert owner.monitor.is_alive(victim.owner_name)

    def test_no_heartbeat_no_detection(self):
        sim, _city, owner, services, _hpops = build(heartbeat_interval=None)
        backed_up(sim, owner)
        victim = holder_of_some_shard(owner, services)
        victim.hpop.crash()
        sim.run_until(sim.now + 30.0)
        assert owner.monitor is None
        assert owner.metrics.counters["peers_declared_dead"].value == 0


class TestAutoRepair:
    def test_lost_shards_repaired_to_full_redundancy(self):
        sim, _city, owner, services, _hpops = build()
        backed_up(sim, owner)
        victim = holder_of_some_shard(owner, services)
        victim.hpop.crash()  # lose_state drops the held shard
        sim.run_until(sim.now + 60.0)
        assert owner.metrics.counters["auto_repair_sweeps"].value >= 1
        entry = next(iter(owner.manifest.values()))
        # The dead friend no longer holds anything; every listed holder
        # is alive and actually has its shard.
        assert victim.owner_name not in entry.shard_holders
        name_to_service = {s.owner_name: s for s in services}
        for index, holder_name in enumerate(entry.shard_holders):
            holder = name_to_service[holder_name]
            assert holder.hpop.running
            assert any(key[2] == index and key[1] == entry.path
                       for key in holder.held_shards
                       ), f"{holder_name} missing shard {index}"
        assert owner.metrics.histograms["time_to_repair_seconds"].count == 1
        assert owner.metrics.histograms["time_to_repair_seconds"].sum > 0

    def test_recovered_friend_triggers_verification_sweep(self):
        sim, _city, owner, services, _hpops = build()
        backed_up(sim, owner)
        victim = holder_of_some_shard(owner, services)
        victim.hpop.crash()
        sim.run_until(sim.now + 60.0)
        sweeps_before = owner.metrics.counters["auto_repair_sweeps"].value
        victim.hpop.restart()
        sim.run_until(sim.now + 60.0)
        # The comeback runs another sweep: the friend restarted empty,
        # so placements must be re-verified, then found healthy.
        assert owner.metrics.counters["auto_repair_sweeps"].value \
            > sweeps_before
        assert owner.metrics.counters["auto_repair_gave_up"].value == 0

    def test_gives_up_after_capped_backoff(self):
        sim, _city, owner, services, _hpops = build()
        backed_up(sim, owner)
        # Kill everyone: repair can never succeed.
        for friend in services[1:]:
            friend.hpop.crash()
        sweeps = []
        real_sweep = owner._auto_repair_sweep

        def sweep():
            sweeps.append(sim.now)
            real_sweep()

        owner._auto_repair_sweep = sweep
        sim.run_until(sim.now + 120.0)
        assert len(sweeps) == MAX_REPAIR_SWEEPS == 6
        assert owner.metrics.counters["auto_repair_sweeps"].value == 6
        assert owner.metrics.counters["auto_repair_gave_up"].value == 1
        # 0.5 s after the death verdicts, then doubling: 1, 2, 4, 8, 16.
        gaps = [round(b - a, 9) for a, b in zip(sweeps, sweeps[1:])]
        assert gaps == [min(REPAIR_BACKOFF_CAP, REPAIR_BACKOFF_BASE * 2 ** n)
                        for n in range(1, 6)] == [1.0, 2.0, 4.0, 8.0, 16.0]
        # Time-to-repair is never observed for a failed recovery.
        assert owner.metrics.histograms["time_to_repair_seconds"].count == 0

    def test_spans_cover_death_and_repair(self):
        sim, _city, owner, services, _hpops = build()
        tracer = sim.enable_tracing()
        backed_up(sim, owner)
        victim = holder_of_some_shard(owner, services)
        victim.hpop.crash()
        sim.run_until(sim.now + 60.0)
        names = [s.name for s in tracer.spans()]
        assert "attic.peer_dead" in names
        assert "attic.auto_repair" in names
