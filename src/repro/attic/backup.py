"""Attic availability and preservation strategies (paper SIV-A).

"For long-term data preservation, we can optionally backup the encrypted
data locally ... or with a cloud such as Amazon Glacier. For data
availability, users could ... add replication mechanisms ... replicating
the entire HPoP to attics belonging to friends and relatives, or
redundantly encoding the contents — e.g., using erasure codes — and
storing pieces with a variety of peers."

Four strategies share one interface so experiment E5 can sweep them:

- :class:`NoBackup` — availability is the home's availability,
- :class:`LocalDiskBackup` — protects against appliance (not home) loss,
- :class:`ColdCloudBackup` — durable but slow to restore,
- :class:`PeerReplication` — full copies on friends' HPoPs,
- :class:`ErasureCodedBackup` — k-of-n shards across peers.

Availability is evaluated against a *failure state*: the set of homes
(and the cloud) currently down. Durability additionally distinguishes
"data permanently lost" from "temporarily unreachable".
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro.util.erasure import ReedSolomonCodec


@dataclass(frozen=True)
class FailureState:
    """Which storage sites are currently unavailable."""

    down_homes: FrozenSet[str] = frozenset()
    cloud_down: bool = False

    def home_up(self, name: str) -> bool:
        return name not in self.down_homes


@dataclass
class BackupPlacement:
    """Where one attic's data lives under a strategy."""

    owner_home: str
    strategy_name: str
    replica_homes: List[str] = field(default_factory=list)
    shard_homes: List[str] = field(default_factory=list)
    k: int = 0  # erasure parameter (0 = not erasure coded)
    uses_cloud: bool = False
    uses_local_disk: bool = False


class BackupStrategy:
    """Interface: place data, then answer availability questions."""

    name = "abstract"

    def place(self, owner_home: str, peers: Sequence[str]) -> BackupPlacement:
        raise NotImplementedError

    def available(self, placement: BackupPlacement, state: FailureState) -> bool:
        """Can the data be served right now (any online full source)?"""
        raise NotImplementedError

    def recoverable(self, placement: BackupPlacement, state: FailureState) -> bool:
        """Can the data be reconstructed at all (possibly slowly)?"""
        return self.available(placement, state)

    def storage_overhead(self) -> float:
        """Stored bytes per payload byte, counting the primary copy."""
        raise NotImplementedError


class NoBackup(BackupStrategy):
    """The 'home utilities' stance: occasional unavailability accepted."""

    name = "none"

    def place(self, owner_home: str, peers: Sequence[str]) -> BackupPlacement:
        return BackupPlacement(owner_home=owner_home, strategy_name=self.name)

    def available(self, placement: BackupPlacement, state: FailureState) -> bool:
        return state.home_up(placement.owner_home)

    def storage_overhead(self) -> float:
        return 1.0


class LocalDiskBackup(BackupStrategy):
    """An in-home NAS/external disk: same fate as the home for availability."""

    name = "local-disk"

    def place(self, owner_home: str, peers: Sequence[str]) -> BackupPlacement:
        return BackupPlacement(owner_home=owner_home, strategy_name=self.name,
                               uses_local_disk=True)

    def available(self, placement: BackupPlacement, state: FailureState) -> bool:
        return state.home_up(placement.owner_home)

    def recoverable(self, placement: BackupPlacement, state: FailureState) -> bool:
        # Device loss is survivable; whole-home loss is not modeled apart.
        return True

    def storage_overhead(self) -> float:
        return 2.0


class ColdCloudBackup(BackupStrategy):
    """Glacier-style: durable offsite copy, restore latency in hours."""

    name = "cold-cloud"

    def __init__(self, restore_latency: float = 4 * 3600.0) -> None:
        self.restore_latency = restore_latency

    def place(self, owner_home: str, peers: Sequence[str]) -> BackupPlacement:
        return BackupPlacement(owner_home=owner_home, strategy_name=self.name,
                               uses_cloud=True)

    def available(self, placement: BackupPlacement, state: FailureState) -> bool:
        # Cold storage is not on the serving path.
        return state.home_up(placement.owner_home)

    def recoverable(self, placement: BackupPlacement, state: FailureState) -> bool:
        return state.home_up(placement.owner_home) or not state.cloud_down

    def storage_overhead(self) -> float:
        return 2.0


class PeerReplication(BackupStrategy):
    """Full attic replicas on ``replicas`` friends' HPoPs."""

    name = "peer-replication"

    def __init__(self, replicas: int = 2) -> None:
        if replicas < 1:
            raise ValueError("need at least one replica")
        self.replicas = replicas

    def place(self, owner_home: str, peers: Sequence[str]) -> BackupPlacement:
        chosen = [p for p in peers if p != owner_home][: self.replicas]
        if len(chosen) < self.replicas:
            raise ValueError(
                f"need {self.replicas} peers, only {len(chosen)} available")
        return BackupPlacement(owner_home=owner_home, strategy_name=self.name,
                               replica_homes=chosen)

    def available(self, placement: BackupPlacement, state: FailureState) -> bool:
        if state.home_up(placement.owner_home):
            return True
        return any(state.home_up(h) for h in placement.replica_homes)

    def storage_overhead(self) -> float:
        return 1.0 + self.replicas


class ErasureCodedBackup(BackupStrategy):
    """k-of-n shards spread across peers (real Reed-Solomon geometry)."""

    name = "erasure"

    def __init__(self, k: int = 4, m: int = 2) -> None:
        self.codec = ReedSolomonCodec(k, m)  # validates geometry
        self.k = k
        self.m = m

    def place(self, owner_home: str, peers: Sequence[str]) -> BackupPlacement:
        needed = self.k + self.m
        chosen = [p for p in peers if p != owner_home][:needed]
        if len(chosen) < needed:
            raise ValueError(f"need {needed} peers, only {len(chosen)} available")
        return BackupPlacement(owner_home=owner_home, strategy_name=self.name,
                               shard_homes=chosen, k=self.k)

    def available(self, placement: BackupPlacement, state: FailureState) -> bool:
        if state.home_up(placement.owner_home):
            return True
        alive = sum(1 for h in placement.shard_homes if state.home_up(h))
        return alive >= placement.k

    def storage_overhead(self) -> float:
        return 1.0 + self.codec.storage_overhead()


def shards_lost(placement: BackupPlacement, state: FailureState) -> List[str]:
    """Shard homes currently down — candidates for repair."""
    return [h for h in placement.shard_homes if not state.home_up(h)]


def repair_placement(
    placement: BackupPlacement,
    state: FailureState,
    peers: Sequence[str],
) -> Tuple[BackupPlacement, int]:
    """Re-place shards/replicas whose homes are down onto healthy peers.

    Mirrors the operational repair path analytically: every down home in
    the placement is swapped for an up peer not already used (and not the
    owner). Returns the new placement and how many sites were repaired;
    if there are not enough healthy unused peers, repairs as many as
    possible.
    """
    used = {placement.owner_home, *placement.replica_homes,
            *placement.shard_homes}
    pool = [p for p in peers
            if p not in used and state.home_up(p)]
    repaired = 0

    def fix(homes: List[str]) -> List[str]:
        nonlocal repaired
        out = []
        for home in homes:
            if not state.home_up(home) and pool:
                out.append(pool.pop(0))
                repaired += 1
            else:
                out.append(home)
        return out

    new_placement = BackupPlacement(
        owner_home=placement.owner_home,
        strategy_name=placement.strategy_name,
        replica_homes=fix(placement.replica_homes),
        shard_homes=fix(placement.shard_homes),
        k=placement.k,
        uses_cloud=placement.uses_cloud,
        uses_local_disk=placement.uses_local_disk,
    )
    return new_placement, repaired


def simulate_availability(
    strategy: BackupStrategy,
    owner_home: str,
    peers: Sequence[str],
    home_up_probability: float,
    trials: int,
    rng: random.Random,
    cloud_up_probability: float = 0.99999,
) -> float:
    """Monte-Carlo fraction of trials in which the data is available.

    Each trial draws an independent up/down state for every home (and
    the cloud) and asks the strategy whether data can be served.
    """
    if not 0 <= home_up_probability <= 1:
        raise ValueError("home_up_probability must be in [0, 1]")
    placement = strategy.place(owner_home, peers)
    # Placement order, not set order: each home's draw must not depend
    # on the process's string-hash seed.
    involved = list(dict.fromkeys([owner_home, *placement.replica_homes,
                                   *placement.shard_homes]))
    hits = 0
    for _ in range(trials):
        down = frozenset(h for h in involved
                         if rng.random() > home_up_probability)
        state = FailureState(down_homes=down,
                             cloud_down=rng.random() > cloud_up_probability)
        hits += strategy.available(placement, state)
    return hits / trials


def analytic_availability(strategy: BackupStrategy, p_up: float) -> Optional[float]:
    """Closed-form availability where one exists (for cross-checking).

    Returns None for strategies without a simple closed form.
    """
    if isinstance(strategy, (NoBackup, LocalDiskBackup, ColdCloudBackup)):
        return p_up
    if isinstance(strategy, PeerReplication):
        return 1 - (1 - p_up) ** (1 + strategy.replicas)
    if isinstance(strategy, ErasureCodedBackup):
        # Up if owner up, else if >= k of (k+m) shard homes up.
        n = strategy.k + strategy.m
        shard_ok = sum(
            math.comb(n, i) * p_up ** i * (1 - p_up) ** (n - i)
            for i in range(strategy.k, n + 1)
        )
        return p_up + (1 - p_up) * shard_ok
    return None
