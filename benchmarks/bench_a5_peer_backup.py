"""A5 (ablation) — operational peer backup: redundancy vs cost vs recovery.

The availability mathematics is experiment E5; this ablation runs the
*mechanism* (shards pushed and fetched over the simulated network) and
sweeps the Reed-Solomon geometry: backup traffic, storage at friends,
restore time, and tolerance to dead friends.
"""

from repro.attic.backup_service import PeerBackupService
from repro.attic.service import DataAtticService
from repro.hpop.core import Household, Hpop, User
from repro.metrics.report import ExperimentReport
from repro.net.topology import build_city
from repro.sim.engine import Simulator
from repro.util.units import mib

FILE_SIZE = mib(20)
NUM_FRIENDS = 10


def build(k, m, seed):
    sim = Simulator(seed=seed)
    city = build_city(sim, homes_per_neighborhood=NUM_FRIENDS + 2)
    services = []
    for i in range(NUM_FRIENDS + 1):
        home = city.neighborhoods[0].homes[i]
        hpop = Hpop(home.hpop_host, city.network,
                    Household(name=f"h{i}", users=[User("u", "p")]))
        hpop.install(DataAtticService())
        svc = hpop.install(PeerBackupService(k=k, m=m))
        hpop.start()
        services.append(svc)
    owner = services[0]
    for friend in services[1:]:
        owner.add_friend(friend)
    attic = owner.hpop.service("attic")
    attic.dav.tree.mkcol_recursive("/u0")
    attic.dav.tree.put("/u0/archive.tar", size=FILE_SIZE)
    return sim, city, owner, services


def run_geometry(k, m, kill):
    """Backup then restore with ``kill`` shard holders dead."""
    sim, city, owner, services = build(k, m, seed=500 + k * 10 + m)
    done = []
    t0 = sim.now
    owner.backup_file("/u0/archive.tar", done.append)
    sim.run()
    assert done == [True]
    backup_time = sim.now - t0
    stored = sum(s.bytes_stored_for_friends for s in services[1:])

    holders = [s for s in services[1:] if s.held_shards]
    for dead in holders[:kill]:
        dead.hpop.shutdown()
    owner.hpop.service("attic").dav.tree.delete("/u0/archive.tar")
    restored = []
    t1 = sim.now
    owner.restore_file("/u0/archive.tar", restored.append)
    sim.run()
    restore_time = sim.now - t1
    return backup_time, stored, restored == [True], restore_time


def experiment():
    report = ExperimentReport(
        "A5", "Peer backup mechanism: RS geometry sweep (20 MiB file)",
        columns=("geometry", "backup time (s)", "stored at friends (MiB)",
                 "dead friends", "restore ok", "restore time (s)"))
    outcomes = {}
    for k, m, kill in ((3, 2, 0), (3, 2, 2), (3, 2, 3),
                       (6, 3, 3), (2, 1, 1)):
        backup_time, stored, ok, restore_time = run_geometry(k, m, kill)
        outcomes[(k, m, kill)] = (backup_time, stored, ok, restore_time)
        report.add_row(f"RS({k},{m})", backup_time, stored / mib(1),
                       kill, ok, restore_time)

    report.check(
        "restores succeed up to exactly m dead friends",
        "RS(3,2): ok with 2 dead, fails with 3; RS(6,3): ok with 3 dead",
        f"{outcomes[(3, 2, 2)][2]}, {outcomes[(3, 2, 3)][2]}, "
        f"{outcomes[(6, 3, 3)][2]}",
        outcomes[(3, 2, 2)][2] and not outcomes[(3, 2, 3)][2]
        and outcomes[(6, 3, 3)][2])
    report.check(
        "friend-side storage follows the (k+m)/k overhead",
        "RS(3,2) stores ~1.67x the file across friends",
        f"{outcomes[(3, 2, 0)][1] / FILE_SIZE:.2f}x",
        1.55 < outcomes[(3, 2, 0)][1] / FILE_SIZE < 1.8)
    report.check(
        "wider striping parallelizes backup",
        "RS(6,3) backup not slower than RS(2,1) (smaller shards, "
        "more parallel paths)",
        f"{outcomes[(6, 3, 3)][0]:.2f} vs {outcomes[(2, 1, 1)][0]:.2f} s",
        outcomes[(6, 3, 3)][0] <= outcomes[(2, 1, 1)][0] * 1.1)
    report.check(
        "restore is interactive at neighborhood bandwidth",
        "a 20 MiB restore completes in under 5 s of simulated time",
        f"{outcomes[(3, 2, 2)][3]:.2f} s",
        outcomes[(3, 2, 2)][3] < 5.0)
    return report
