"""Flow-level TCP model: slow start, AIMD, fast retransmit, RTO.

The model steps a flow in RTT-sized "rounds", the standard fluid
abstraction for transport in discrete-event network simulation:

- each round the flow sends ``min(cwnd, fair_share * rtt, remaining)``,
- slow start doubles cwnd each round until ``ssthresh``; congestion
  avoidance adds one MSS per round,
- per-round loss is Bernoulli over the packets sent (link loss rates
  compose along the path); a loss event halves cwnd (fast retransmit) and
  the lost bytes are retransmitted,
- repeated losses at tiny windows degrade to a retransmission timeout.

This reproduces the paper's SIV-D arithmetic: with IW10 over a 1 Gbps /
50 ms RTT path, a connection needs ~10 RTTs and >14 MB in flight before
it can use the capacity — verified by experiment E2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.net.network import Path
from repro.sim.engine import Simulator

MSS = 1460  # bytes, the conventional Ethernet-derived segment size
DEFAULT_INITIAL_WINDOW_SEGMENTS = 10  # RFC 6928 IW10
MIN_RTO = 0.2  # seconds, floor of a retransmission timeout or stall period
INITIAL_CWND = float(MSS * DEFAULT_INITIAL_WINDOW_SEGMENTS)


class CongestionWindow:
    """The one sender model: cwnd, ssthresh, the loss draw and the RTO rule.

    :class:`TcpFlow` and :class:`~repro.transport.mptcp.MptcpSubflow`
    each own one. The owner decides where a round's bytes come from and
    when they are accounted; it reads the path's fair share and RTT once
    per round and passes them in, so nothing here touches the network.
    """

    def __init__(self, rng, overhead_per_packet: int = 0,
                 cwnd: Optional[float] = None) -> None:
        self._rng = rng
        self.overhead_per_packet = overhead_per_packet
        self.cwnd = INITIAL_CWND if cwnd is None else cwnd
        self.ssthresh = float("inf")
        self._consecutive_losses = 0

    def restart(self) -> None:
        """Back to the initial window, as on a fresh or rerouted path."""
        self.cwnd = INITIAL_CWND

    def rate_bps(self, share_bps: float, rtt: float) -> float:
        """min(window rate, network fair share), in bits/sec of goodput."""
        # Per-packet overhead (tunnel encapsulation) eats into goodput.
        efficiency = MSS / (MSS + self.overhead_per_packet)
        window_rate = self.cwnd * 8 / rtt
        return min(window_rate, share_bps * efficiency)

    def wire_bytes(self, sent: float) -> float:
        """Bytes ``sent`` bytes of payload occupy on the wire."""
        return sent * (1 + self.overhead_per_packet / MSS)

    def draw_losses(self, sent: float, loss_rate: float) -> int:
        """Packets lost out of one round's ``sent`` bytes."""
        if loss_rate <= 0:
            return 0
        # Expected losses with a Bernoulli draw for the remainder keeps
        # per-round work O(1) instead of O(packets).
        expected = max(1, int(sent / MSS)) * loss_rate
        lost_packets = int(expected)
        if self._rng.random() < expected - lost_packets:
            lost_packets += 1
        return lost_packets

    def on_round(self, lost_packets: int, rtt: float,
                 share_bps: float) -> Tuple[bool, float]:
        """Advance the window over one round; ``(timed_out, pause)``.

        A loss halves the window (fast retransmit); persistent loss at
        a tiny window is an RTO that adds ``pause`` to the round. A
        clean round doubles cwnd below ssthresh and adds one MSS above.
        """
        if lost_packets > 0:
            self._consecutive_losses += 1
            self.ssthresh = max(2 * MSS, self.cwnd / 2)
            if self._consecutive_losses >= 3 and self.cwnd <= 4 * MSS:
                self.cwnd = float(MSS)
                return True, max(MIN_RTO, 2 * rtt)
            self.cwnd = self.ssthresh
            return False, 0.0
        self._consecutive_losses = 0
        if self.cwnd < self.ssthresh:
            self.cwnd = min(self.cwnd * 2, self.ssthresh)
        else:
            self.cwnd += MSS
        # Buffer-limited cap: when the network share (not the window)
        # is the constraint, real TCP would overflow the bottleneck
        # queue and settle near the share BDP rather than grow
        # unboundedly. 4x leaves headroom to grab capacity that
        # frees up when a competing flow departs.
        cap = max(4 * (share_bps * rtt / 8), 4 * MSS)
        if self.cwnd > cap:
            self.cwnd = cap
            self.ssthresh = min(self.ssthresh, cap)
        return False, 0.0


@dataclass
class FlowStats:
    """Observable outcomes of one flow, for experiments and tests."""

    start_time: float = 0.0
    end_time: Optional[float] = None
    bytes_requested: int = 0
    bytes_delivered: float = 0.0
    rounds: int = 0
    loss_events: int = 0
    timeouts: int = 0
    retransmitted_bytes: float = 0.0
    reroutes: int = 0
    stalls: int = 0
    # (round_end_time, cumulative_delivered_bytes) samples
    progress: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def duration(self) -> Optional[float]:
        if self.end_time is None:
            return None
        return self.end_time - self.start_time

    @property
    def mean_goodput_bps(self) -> Optional[float]:
        duration = self.duration
        if duration is None or duration <= 0:
            return None
        return self.bytes_delivered * 8 / duration


class TcpFlow:
    """A one-directional bulk transfer over a fixed path.

    The caller supplies the routed :class:`~repro.net.network.Path` (from
    the sender toward the receiver) and a completion callback. Handshake
    cost, if any, is applied by the caller (see :class:`TcpConnection`)
    so flows compose into persistent connections and MPTCP subflows.
    """

    def __init__(
        self,
        sim: Simulator,
        path: Path,
        nbytes: int,
        on_complete: Optional[Callable[["TcpFlow"], None]] = None,
        label: str = "tcp",
        initial_cwnd_bytes: Optional[float] = None,
        overhead_per_packet: int = 0,
        rng_stream: str = "tcp.loss",
        start: bool = True,
    ) -> None:
        if nbytes <= 0:
            raise ValueError(f"nbytes must be positive, got {nbytes}")
        self.sim = sim
        self.path = path
        self.label = label
        self._window = CongestionWindow(
            sim.rng.stream(rng_stream), overhead_per_packet,
            cwnd=initial_cwnd_bytes)
        self.remaining = float(nbytes)
        self.on_complete = on_complete
        self.stats = FlowStats(start_time=sim.now, bytes_requested=nbytes)
        self._active = False
        self._done = False
        self._cancelled = False
        self._failed = False
        self._pending_event = None
        self.max_stalls = 30  # give up after ~30 stall periods on a dead path
        self._span = sim.tracer.start_span(
            "net.flow", label=label, bytes=nbytes,
            src=path.source.name, dst=path.dest.name)
        if start:
            self.start()

    # -- lifecycle -------------------------------------------------------

    @property
    def rtt(self) -> float:
        """The path's RTT, read live: faults change link delays in place."""
        return self.path.rtt

    @property
    def cwnd(self) -> float:
        return self._window.cwnd

    @property
    def done(self) -> bool:
        return self._done

    @property
    def failed(self) -> bool:
        """True when the flow gave up on a partitioned path."""
        return self._failed

    def start(self) -> None:
        if self._active or self._done:
            return
        self._active = True
        self.stats.start_time = self.sim.now
        self.path.register_flow(self)
        # Rounds re-schedule themselves from inside their own event, so
        # activating here parents the whole round chain under the flow.
        with self.sim.tracer.activate(self._span):
            self._pending_event = self.sim.call_soon(
                self._round, label=f"{self.label}.round")

    def cancel(self) -> None:
        """Abort the transfer (peer death, detour withdrawal)."""
        if self._done or self._cancelled:
            return
        self._cancelled = True
        if self._pending_event is not None:
            self._pending_event.cancel()
        self._span.finish(outcome="cancelled",
                          delivered=self.stats.bytes_delivered)
        self._teardown()

    def _teardown(self) -> None:
        if self._active:
            self.path.unregister_flow(self)
            self._active = False

    # -- the round engine ---------------------------------------------------

    def _path_is_up(self) -> bool:
        return all(d.link.up for d in self.path.directions)

    def _handle_broken_path(self) -> None:
        """IP reroute if possible; otherwise stall with backoff, then fail."""
        network = getattr(self.path.source, "network", None)
        if network is not None:
            from repro.net.network import NetworkError

            try:
                new_path = network.path_between(self.path.source,
                                                self.path.dest)
            except NetworkError:
                new_path = None
            if new_path is not None and new_path is not self.path:
                self.path.unregister_flow(self)
                new_path.register_flow(self)
                self.path = new_path
                self.stats.reroutes += 1
                # Congestion state is stale on a new path: restart
                # conservatively (RFC 2861 spirit).
                self._window.restart()
                self._pending_event = self.sim.call_soon(
                    self._round, label=f"{self.label}.reroute")
                return
        self.stats.stalls += 1
        if self.stats.stalls >= self.max_stalls:
            self._failed = True
            self._span.finish(outcome="failed", stalls=self.stats.stalls)
            self._teardown()
            return
        self._pending_event = self.sim.schedule(
            max(MIN_RTO, 2 * self.rtt), self._round,
            label=f"{self.label}.stall")

    def _round(self) -> None:
        if self._cancelled or self._done:
            return
        if not self._path_is_up():
            self._handle_broken_path()
            return
        window = self._window
        rtt = self.rtt
        share_bps = self.path.fair_share_bps(self)
        rate_bps = window.rate_bps(share_bps, rtt)
        to_send = min(self.remaining, rate_bps * rtt / 8)
        if to_send <= 0:
            self._finish()
            return

        lost_packets = window.draw_losses(to_send, self.path.loss_rate)
        lost_bytes = min(to_send, lost_packets * MSS)
        delivered = to_send - lost_bytes
        self.path.carry(self.sim.now, window.wire_bytes(to_send))

        self.stats.rounds += 1
        self.stats.bytes_delivered += delivered
        self.remaining -= delivered
        timed_out, pause = window.on_round(lost_packets, rtt, share_bps)
        if lost_packets > 0:
            self.stats.loss_events += 1
            self.stats.retransmitted_bytes += lost_bytes
            self.stats.timeouts += timed_out

        # Round duration: a full RTT when there is more to send; for the
        # final round only serialization plus half an RTT remains.
        if self.remaining > 0:
            duration = rtt + pause
            self._pending_event = self.sim.schedule(
                duration, self._round, label=f"{self.label}.round")
        else:
            serialize = to_send * 8 / rate_bps if rate_bps > 0 else 0.0
            duration = min(rtt, serialize + rtt / 2)
            self._pending_event = self.sim.schedule(
                duration, self._finish, label=f"{self.label}.finish")
        self.stats.progress.append((self.sim.now + duration,
                                    self.stats.bytes_delivered))

    def _finish(self) -> None:
        if self._done or self._cancelled:
            return
        self._done = True
        self.stats.end_time = self.sim.now
        self._span.finish(outcome="ok", rounds=self.stats.rounds,
                          loss_events=self.stats.loss_events)
        network = getattr(self.path.source, "network", None)
        if network is not None:
            network.note_flow_complete(self)
        self._teardown()
        if self.on_complete is not None:
            self.on_complete(self)


class TcpConnection:
    """A bidirectional connection with handshake cost and warm cwnd reuse.

    HTTP and WebDAV endpoints run on top of this. A connection performs a
    1-RTT handshake (plus optional TLS round trips), then serves a queue
    of transfers; cwnd persists across transfers on the same connection,
    so persistent connections genuinely help — measurable in E6.
    """

    def __init__(
        self,
        sim: Simulator,
        forward_path: Path,
        reverse_path: Path,
        label: str = "conn",
        tls_round_trips: int = 0,
        rng_stream: str = "tcp.loss",
    ) -> None:
        self.sim = sim
        self.forward_path = forward_path
        self.reverse_path = reverse_path
        self.label = label
        self.tls_round_trips = tls_round_trips
        self.rng_stream = rng_stream
        self._established = False
        self._establishing = False
        self._cwnd_cache = {"up": None, "down": None}
        self._waiters: List[Callable[[], None]] = []
        self._closed = False
        self.handshake_completed_at: Optional[float] = None

    @property
    def established(self) -> bool:
        return self._established

    @property
    def setup_rtts(self) -> float:
        """Round trips consumed before the first byte of application data."""
        return 1 + self.tls_round_trips

    def establish(self, on_ready: Callable[[], None]) -> None:
        """Run the (TCP [+TLS]) handshake, then invoke ``on_ready``."""
        if self._closed:
            raise RuntimeError(f"connection {self.label} is closed")
        if self._established:
            self.sim.call_soon(on_ready, label=f"{self.label}.ready")
            return
        self._waiters.append(on_ready)
        if self._establishing:
            return
        self._establishing = True
        delay = self.setup_rtts * self.forward_path.rtt

        def complete() -> None:
            self._established = True
            self._establishing = False
            self.handshake_completed_at = self.sim.now
            waiters, self._waiters = self._waiters, []
            for waiter in waiters:
                waiter()

        self.sim.schedule(delay, complete, label=f"{self.label}.handshake")

    def transfer(
        self,
        nbytes: int,
        direction: str,
        on_complete: Callable[[TcpFlow], None],
        label: Optional[str] = None,
    ) -> TcpFlow:
        """Move ``nbytes`` 'up' (client->server) or 'down' on this connection.

        Must be established. cwnd carries over between same-direction
        transfers (a warm connection skips slow start's early rounds).
        """
        if not self._established:
            raise RuntimeError(f"connection {self.label} not established")
        if self._closed:
            raise RuntimeError(f"connection {self.label} is closed")
        if direction not in ("up", "down"):
            raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
        path = self.forward_path if direction == "up" else self.reverse_path

        def done(flow: TcpFlow) -> None:
            self._cwnd_cache[direction] = flow.cwnd
            on_complete(flow)

        return TcpFlow(
            self.sim, path, nbytes, on_complete=done,
            label=label or f"{self.label}.{direction}",
            initial_cwnd_bytes=self._cwnd_cache[direction],
            rng_stream=self.rng_stream,
        )

    def close(self) -> None:
        self._closed = True
