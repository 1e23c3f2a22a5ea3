"""The "who has what" content directory for collaborative NoCDN caching.

Peers announce which objects their caches hold; the origin's wrapper
assignment and other peers' miss-forwarding consult the directory
before falling back to the origin. Two deployment shapes share one
implementation:

- **origin-hosted** (``gossip_interval == 0``): announcements apply
  synchronously — the directory is never stale,
- **gossip** (``gossip_interval > 0``): each peer batches its cache
  deltas and flushes them on a fixed cadence, so an entry can lag the
  cache it describes by at most one gossip interval (the *bounded
  staleness* contract; the observed lag lands in the
  ``directory_staleness_seconds`` histogram).

Correctness is one-sided by construction: a *missing* entry only costs
an origin fill, while a *wrong* entry (claiming content a peer no
longer has) costs a failed forward. Eviction withdrawals and
``drop_peer`` on quarantine/crash keep the wrong-entry window to the
same one-interval bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, Iterable, List, Optional, Tuple

from repro.metrics.counters import MetricsRegistry
from repro.net.address import Address
from repro.sim.engine import Process, Simulator

Endpoint = Tuple[Address, int]


class ContentDirectory:
    """Fleet-wide object -> holders map with bounded staleness."""

    def __init__(self, sim: Simulator, gossip_interval: float = 0.0,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if gossip_interval < 0:
            raise ValueError("gossip_interval must be >= 0")
        self.sim = sim
        self.gossip_interval = gossip_interval
        # (site, object name) -> peer id -> announce time
        self._entries: Dict[Tuple[str, str], Dict[str, float]] = {}
        self._endpoints: Dict[str, Endpoint] = {}
        self.metrics = metrics if metrics is not None else MetricsRegistry(
            namespace="nocdn_directory")
        self._c_publishes = self.metrics.counter(
            "directory_publishes", help="Object announcements applied")
        self._c_withdrawals = self.metrics.counter(
            "directory_withdrawals", help="Object announcements removed")
        self._c_drops = self.metrics.counter(
            "directory_peer_drops",
            help="Peers dropped wholesale (quarantine/crash)")
        self._c_lookups = self.metrics.counter(
            "directory_lookups", help="holders() queries answered")
        self._staleness = self.metrics.histogram(
            "directory_staleness_seconds",
            help="Announcement lag behind the cache mutation it describes")

    @property
    def staleness_bound(self) -> float:
        """Worst-case lag of an entry behind the cache it describes."""
        return self.gossip_interval

    def __len__(self) -> int:
        return sum(len(holders) for holders in self._entries.values())

    # -- peer side ------------------------------------------------------

    def register_endpoint(self, peer_id: str, endpoint: Endpoint) -> None:
        self._endpoints[peer_id] = endpoint

    def endpoint(self, peer_id: str) -> Optional[Endpoint]:
        return self._endpoints.get(peer_id)

    def publish(self, peer_id: str, site: str, name: str,
                changed_at: Optional[float] = None) -> None:
        """Announce that ``peer_id`` holds ``(site, name)``."""
        now = self.sim.now
        self._entries.setdefault((site, name), {})[peer_id] = now
        self._c_publishes.inc()
        self._staleness.observe(
            max(0.0, now - (changed_at if changed_at is not None else now)))

    def withdraw(self, peer_id: str, site: str, name: str,
                 changed_at: Optional[float] = None) -> None:
        """Announce that ``peer_id`` no longer holds ``(site, name)``."""
        holders = self._entries.get((site, name))
        if holders is not None and peer_id in holders:
            del holders[peer_id]
            if not holders:
                del self._entries[(site, name)]
            self._c_withdrawals.inc()
            now = self.sim.now
            self._staleness.observe(
                max(0.0, now - (changed_at if changed_at is not None
                                else now)))

    def drop_peer(self, peer_id: str) -> int:
        """Remove every entry for ``peer_id`` (quarantine/crash path)."""
        removed = 0
        dead = []
        for key, holders in self._entries.items():
            if peer_id in holders:
                del holders[peer_id]
                removed += 1
                if not holders:
                    dead.append(key)
        for key in dead:
            del self._entries[key]
        if removed:
            self._c_drops.inc()
        return removed

    # -- lookup side ----------------------------------------------------

    def holders(self, site: str, name: str,
                exclude: Iterable[str] = (),
                live: Optional[AbstractSet[str]] = None) -> List[str]:
        """Peers believed to hold ``(site, name)``, sorted for
        determinism. ``live`` optionally restricts to a live set."""
        self._c_lookups.inc()
        holders = self._entries.get((site, name))
        if not holders:
            return []
        excluded = set(exclude)
        return sorted(
            p for p in holders
            if p not in excluded and (live is None or p in live))

    def entries(self) -> Dict[Tuple[str, str], List[str]]:
        """Snapshot of the full map (sorted holders per object)."""
        return {key: sorted(holders)
                for key, holders in self._entries.items()}


@dataclass
class _Delta:
    op: str          # "publish" | "withdraw"
    name: str
    at: float        # sim time of the underlying cache mutation


class DirectoryPublisher:
    """One peer's announcement pipe into a :class:`ContentDirectory`.

    With ``gossip_interval == 0`` every cache mutation applies to the
    directory synchronously (the origin-hosted shape). Otherwise
    deltas batch locally and :meth:`start` schedules a weak periodic
    flush, so announcements lag mutations by at most one interval.
    Opposite deltas for the same object coalesce to the latest state.
    """

    def __init__(self, directory: ContentDirectory, peer_id: str,
                 site: str, endpoint: Endpoint) -> None:
        self.directory = directory
        self.peer_id = peer_id
        self.site = site
        self._pending: Dict[str, _Delta] = {}
        self._gossip: Optional[Process] = None
        directory.register_endpoint(peer_id, endpoint)

    @property
    def sim(self) -> Simulator:
        return self.directory.sim

    @property
    def pending(self) -> int:
        return len(self._pending)

    def note_store(self, name: str) -> None:
        self._note("publish", name)

    def note_evict(self, name: str) -> None:
        self._note("withdraw", name)

    def _note(self, op: str, name: str) -> None:
        if self.directory.gossip_interval == 0:
            self._apply(_Delta(op=op, name=name, at=self.sim.now))
            return
        self._pending[name] = _Delta(op=op, name=name, at=self.sim.now)
        self.start()

    def start(self) -> None:
        """Schedule the periodic flush loop (idempotent, weak events)."""
        if self._gossip is not None or self.directory.gossip_interval == 0:
            return
        label = f"nocdn.gossip.{self.peer_id}"
        self._gossip = Process(self.sim, label)
        self._gossip.every(self.directory.gossip_interval, self.flush,
                           label=label)

    def flush(self) -> int:
        """Apply all batched deltas now; returns how many applied."""
        if not self._pending:
            return 0
        deltas = [self._pending[name] for name in sorted(self._pending)]
        self._pending.clear()
        for delta in deltas:
            self._apply(delta)
        return len(deltas)

    def _apply(self, delta: _Delta) -> None:
        if delta.op == "publish":
            self.directory.publish(self.peer_id, self.site, delta.name,
                                   changed_at=delta.at)
        else:
            self.directory.withdraw(self.peer_id, self.site, delta.name,
                                    changed_at=delta.at)
