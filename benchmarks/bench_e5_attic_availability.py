"""E5 — Attic availability and preservation strategies (paper SIV-A).

The paper offers a menu: accept home-utility availability, back up
locally or to cold cloud storage, replicate the whole HPoP to friends'
attics, or erasure-code across peers. We sweep the menu against home
availability levels, cross-check Monte-Carlo against closed forms, and
show the storage-vs-availability tradeoff the paper implies.
"""

import random

from repro.attic.backup import (
    ColdCloudBackup,
    ErasureCodedBackup,
    FailureState,
    LocalDiskBackup,
    NoBackup,
    PeerReplication,
    analytic_availability,
    simulate_availability,
)
from repro.metrics.report import ExperimentReport

PEERS = [f"home-{i}" for i in range(12)]
TRIALS = 6000


def experiment():
    report = ExperimentReport(
        "E5", "Attic availability under home failures, by strategy",
        columns=("strategy", "storage overhead", "avail @ p=0.95",
                 "avail @ p=0.99", "analytic @ 0.99"))
    rng = random.Random(42)
    strategies = [
        NoBackup(),
        LocalDiskBackup(),
        ColdCloudBackup(),
        PeerReplication(replicas=1),
        PeerReplication(replicas=2),
        ErasureCodedBackup(k=4, m=2),
        ErasureCodedBackup(k=6, m=3),
    ]
    measured = {}
    for strategy in strategies:
        a95 = simulate_availability(strategy, "me", PEERS, 0.95, TRIALS, rng)
        a99 = simulate_availability(strategy, "me", PEERS, 0.99, TRIALS, rng)
        closed = analytic_availability(strategy, 0.99)
        measured[strategy.name, getattr(strategy, "replicas",
                                        getattr(strategy, "m", 0))] = (a95, a99)
        report.add_row(
            f"{strategy.name}"
            + (f"(r={strategy.replicas})" if isinstance(strategy, PeerReplication) else "")
            + (f"(k={strategy.k},m={strategy.m})"
               if isinstance(strategy, ErasureCodedBackup) else ""),
            strategy.storage_overhead(), a95, a99,
            closed if closed is not None else "-")

    base95 = measured[("none", 0)][0]
    rep2_95 = measured[("peer-replication", 2)][0]
    ec42_95 = measured[("erasure", 2)][0]

    report.check(
        "no backup == home availability",
        "availability ~ p_up (0.95)",
        f"{base95:.4f}", abs(base95 - 0.95) < 0.02)
    report.check(
        "peer replication adds nines",
        "2 replicas at p=0.95 ~ 1-(0.05)^3 = 0.999875",
        f"{rep2_95:.5f}", rep2_95 > 0.999)
    report.check(
        "erasure coding adds nines at lower storage cost",
        "RS(4,2) availability > 0.999 with 2.5x storage "
        "(vs 3.0x for 2 replicas)",
        f"{ec42_95:.5f} at {ErasureCodedBackup(4, 2).storage_overhead()}x",
        ec42_95 > 0.995
        and ErasureCodedBackup(4, 2).storage_overhead()
        < PeerReplication(2).storage_overhead())
    # Monte-Carlo vs closed form.
    drift = []
    for strategy in (NoBackup(), PeerReplication(2), ErasureCodedBackup(4, 2)):
        sim_v = simulate_availability(strategy, "me", PEERS, 0.9, TRIALS, rng)
        closed = analytic_availability(strategy, 0.9)
        drift.append(abs(sim_v - closed))
    report.check(
        "Monte-Carlo agrees with closed forms",
        "max |simulated - analytic| < 0.02 at p=0.9",
        f"{max(drift):.4f}", max(drift) < 0.02)
    report.check(
        "cold cloud preserves data even when the home is gone",
        "recoverable despite owner-home loss",
        "recoverable=True",
        ColdCloudBackup().recoverable(
            ColdCloudBackup().place("me", PEERS),
            FailureState(down_homes=frozenset({"me"}))))
    return report
