"""A timeout-based failure detector for peer liveness.

:class:`HeartbeatMonitor` is the generic half of the attic's "detect
lost peers via heartbeat timeout" mechanism: services record each
successful heartbeat with :meth:`beat` and periodically call
:meth:`sweep`; a watched peer whose last beat is older than the timeout
transitions alive -> dead (firing ``on_dead``), and a later beat
transitions it back (firing ``on_alive``). The monitor never does I/O
itself — the owning service sends the pings — so it is trivially
deterministic and unit-testable.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional


class HeartbeatMonitor:
    """Tracks last-seen times for named peers against one clock."""

    def __init__(self, clock, timeout: float,
                 on_dead: Optional[Callable[[str], None]] = None,
                 on_alive: Optional[Callable[[str], None]] = None) -> None:
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self.clock = clock  # anything with a .now in simulated seconds
        self.timeout = timeout
        self.on_dead = on_dead
        self.on_alive = on_alive
        self.last_seen: Dict[str, float] = {}
        self.alive: Dict[str, bool] = {}

    def watch(self, name: str) -> None:
        """Start monitoring ``name``; it gets a grace period of one
        timeout from now before it can be declared dead. Idempotent."""
        if name not in self.last_seen:
            self.last_seen[name] = self.clock.now
            self.alive[name] = True

    def beat(self, name: str) -> None:
        """Record a successful heartbeat; one beat revives a dead peer."""
        revived = not self.alive.get(name, True)
        self.last_seen[name] = self.clock.now
        self.alive[name] = True
        if revived and self.on_alive is not None:
            self.on_alive(name)

    def sweep(self) -> List[str]:
        """Declare overdue peers dead; returns the newly dead names."""
        now = self.clock.now
        newly_dead = []
        for name in sorted(self.last_seen):
            if self.alive[name] and now - self.last_seen[name] > self.timeout:
                self._mark_dead(name)
                newly_dead.append(name)
        return newly_dead

    def declare_dead(self, name: str) -> bool:
        """Out-of-band death verdict (e.g. a failed direct probe).

        Lets a caller with better evidence than heartbeat staleness —
        the control plane probing a peer implicated by another layer —
        skip the remaining timeout. Fires ``on_dead`` exactly like a
        sweep verdict. Returns True if the peer transitioned.
        """
        if name not in self.alive or not self.alive[name]:
            return False
        self._mark_dead(name)
        return True

    def _mark_dead(self, name: str) -> None:
        self.alive[name] = False
        if self.on_dead is not None:
            self.on_dead(name)

    def is_alive(self, name: str) -> bool:
        return self.alive.get(name, False)
