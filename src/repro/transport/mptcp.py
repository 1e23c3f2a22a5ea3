"""Flow-level multipath TCP: subflows over distinct paths, one byte pool.

DCol (paper SIV-C) rides on MPTCP: the client adds subflows that are
tunneled through waypoints, the server perceives them as ordinary MPTCP
subflows, and the default RTT-based scheduler splits traffic among them.

The model: an :class:`MptcpConnection` owns the transfer's byte pool;
each :class:`MptcpSubflow` owns the same
:class:`~repro.transport.tcp.CongestionWindow` a :class:`TcpFlow` does
(window growth, the loss draw, the RTO rule) and *claims* bytes from the
pool each round. Faster / lower-RTT subflows cycle more often and grow cwnd
faster, so they naturally pull a larger share — the same emergent
behaviour as min-RTT scheduling. Client-side steering levers:

- ``extra_ack_delay`` on a subflow inflates its RTT as the server sees
  it, shrinking that subflow's share (SIV-C's delayed-ACK manipulation),
- :meth:`MptcpConnection.remove_subflow` withdraws a detour; its
  claimed-but-undelivered bytes return to the pool and other subflows
  recover them transparently,
- lost bytes also return to the pool (MPTCP reinjection), so a lossy
  subflow cannot strand data.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.net.network import Path
from repro.sim.engine import Simulator
from repro.transport.tcp import MSS, CongestionWindow, FlowStats


class MptcpSubflow:
    """One subflow: TCP congestion state bound to a path, fed by the pool."""

    def __init__(
        self,
        connection: "MptcpConnection",
        path: Path,
        label: str,
        overhead_per_packet: int = 0,
        extra_ack_delay: float = 0.0,
        weight: float = 1.0,
    ) -> None:
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        self.connection = connection
        self.sim = connection.sim
        self.path = path
        self.label = label
        self.extra_ack_delay = extra_ack_delay
        self.weight = weight
        self._window = CongestionWindow(
            self.sim.rng.stream("mptcp.loss"), overhead_per_packet)
        self.stats = FlowStats(start_time=self.sim.now)
        self._in_flight = 0.0
        self._parked = False
        self._removed = False
        self.path.register_flow(self)
        self.sim.call_soon(self._round, label=f"{label}.round")

    # -- introspection ----------------------------------------------------

    @property
    def rtt(self) -> float:
        """RTT as the data sender's scheduler perceives it (includes the
        receiver's deliberate ACK delay)."""
        return self.path.rtt + self.extra_ack_delay

    @property
    def removed(self) -> bool:
        return self._removed

    def measured_goodput_bps(self) -> float:
        """Delivered bytes over subflow lifetime — the explorer's signal."""
        elapsed = self.sim.now - self.stats.start_time
        if elapsed <= 0:
            return 0.0
        return self.stats.bytes_delivered * 8 / elapsed

    def set_ack_delay(self, delay: float) -> None:
        """Adjust the receiver-side ACK delay mid-connection."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self.extra_ack_delay = delay

    # -- engine -----------------------------------------------------------

    def _round(self) -> None:
        # A completed connection has removed every subflow.
        if self._removed:
            return
        connection = self.connection
        if not all(d.link.up for d in self.path.directions):
            # Path partitioned: withdraw this subflow; any bytes it had
            # claimed return to the pool for the surviving subflows —
            # exactly MPTCP's failover behaviour.
            self.remove()
            return
        window = self._window
        rtt = self.rtt
        share_bps = self.path.fair_share_bps(self)
        want = window.rate_bps(share_bps, rtt) * rtt / 8 * self.weight
        claimed = connection.claim(min(want, window.cwnd))
        if claimed <= 0:
            self._parked = True
            return
        self._in_flight += claimed

        lost_packets = window.draw_losses(claimed, self.path.loss_rate)
        lost_bytes = min(claimed, lost_packets * MSS)
        delivered = claimed - lost_bytes
        self.path.carry(self.sim.now, window.wire_bytes(claimed))
        timed_out, pause = window.on_round(lost_packets, rtt, share_bps)
        if lost_packets > 0:
            self.stats.loss_events += 1
            self.stats.retransmitted_bytes += lost_bytes
            self.stats.timeouts += timed_out

        def round_end() -> None:
            self._in_flight -= claimed
            if self._removed:
                # Withdrawn mid-round: everything goes back to the pool.
                connection.restore(claimed)
                return
            self.stats.rounds += 1
            self.stats.bytes_delivered += delivered
            self.stats.progress.append((self.sim.now, self.stats.bytes_delivered))
            if lost_bytes > 0:
                connection.restore(lost_bytes)
            connection.deliver(delivered)
            if not connection.done:
                self.sim.call_soon(self._round, label=f"{self.label}.round")

        self.sim.schedule(rtt + pause, round_end,
                          label=f"{self.label}.round-end")

    def unpark(self) -> None:
        """Resume claiming after the pool regained bytes."""
        if self._parked and not self._removed:
            self._parked = False
            self.sim.call_soon(self._round, label=f"{self.label}.round")

    def remove(self) -> None:
        """Withdraw this subflow; in-flight bytes return to the pool at
        the end of the current round (transparent recovery)."""
        if self._removed:
            return
        self._removed = True
        self.stats.end_time = self.sim.now
        self.path.unregister_flow(self)
        # A round still in flight holds the connection itself, so the
        # back-reference can go: connection and subflow form no cycle.
        self.connection = None


class MptcpConnection:
    """A multipath transfer: subflows drain a shared byte pool.

    Create the connection, add at least one subflow (typically the direct
    path first — DCol requires the TLS handshake to complete on the
    direct path before any detours join), and the transfer runs until the
    pool is delivered.
    """

    def __init__(
        self,
        sim: Simulator,
        nbytes: int,
        on_complete: Optional[Callable[["MptcpConnection"], None]] = None,
        label: str = "mptcp",
    ) -> None:
        if nbytes <= 0:
            raise ValueError(f"nbytes must be positive, got {nbytes}")
        self.sim = sim
        self.label = label
        self.total = float(nbytes)
        self._unclaimed = float(nbytes)
        self._delivered = 0.0
        self.on_complete = on_complete
        self.subflows: List[MptcpSubflow] = []
        self.stats = FlowStats(start_time=sim.now, bytes_requested=nbytes)
        self._done = False

    # -- pool -------------------------------------------------------------

    def claim(self, amount: float) -> float:
        """A subflow claims up to ``amount`` bytes; returns what it got."""
        granted = min(amount, self._unclaimed)
        self._unclaimed -= granted
        return granted

    def restore(self, amount: float) -> None:
        """Return claimed bytes to the pool (loss or withdrawal)."""
        self._unclaimed += amount
        for subflow in self.subflows:
            subflow.unpark()

    def deliver(self, amount: float) -> None:
        self._delivered += amount
        self.stats.bytes_delivered = self._delivered
        self.stats.progress.append((self.sim.now, self._delivered))
        if self._delivered >= self.total - 0.5 and not self._done:
            self._complete()

    def _complete(self) -> None:
        self._done = True
        self.stats.end_time = self.sim.now
        for subflow in self.subflows:
            if not subflow.removed:
                subflow.remove()
        on_complete, self.on_complete = self.on_complete, None
        if on_complete is not None:
            on_complete(self)

    @property
    def done(self) -> bool:
        return self._done

    @property
    def stalled(self) -> bool:
        """True when undelivered bytes remain but no subflow is alive
        (every path failed) — the caller should add a new subflow."""
        return (not self._done
                and not any(not s.removed for s in self.subflows))

    # -- subflow management ---------------------------------------------------

    def add_subflow(
        self,
        path: Path,
        label: Optional[str] = None,
        overhead_per_packet: int = 0,
        extra_ack_delay: float = 0.0,
        weight: float = 1.0,
    ) -> MptcpSubflow:
        """Attach a new subflow over ``path`` (direct or via a waypoint)."""
        if self._done:
            raise RuntimeError(f"connection {self.label} already complete")
        subflow = MptcpSubflow(
            self, path,
            label=label or f"{self.label}.sf{len(self.subflows)}",
            overhead_per_packet=overhead_per_packet,
            extra_ack_delay=extra_ack_delay,
            weight=weight,
        )
        self.subflows.append(subflow)
        return subflow

    def remove_subflow(self, subflow: MptcpSubflow) -> None:
        """Withdraw a subflow; its unfinished bytes are recovered by the rest."""
        if subflow not in self.subflows:
            raise ValueError("subflow belongs to a different connection")
        subflow.remove()

    def active_subflows(self) -> List[MptcpSubflow]:
        return [s for s in self.subflows if not s.removed]

    def share_of(self, subflow: MptcpSubflow) -> float:
        """Fraction of delivered bytes carried by ``subflow`` so far."""
        if self._delivered <= 0:
            return 0.0
        return subflow.stats.bytes_delivered / self._delivered
