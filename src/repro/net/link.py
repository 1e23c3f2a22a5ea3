"""Duplex links with per-direction capacity, delay, loss, and accounting.

The fluid/flow-level model: links do not move individual packets. Instead
each direction of a link tracks the set of registered flows and exposes a
max-min fair-share computation (see :mod:`repro.net.network`); byte
counters and a utilization probe support the bottleneck-shift experiment
(E3) and the cooperative-cache experiment (E12).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, AbstractSet, Dict, List, Optional, Tuple

from repro.util.units import format_bps

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.net.node import Node

# The flow set of every direction no flow has crossed yet: shared, so an
# idle link costs no set of its own.
_NO_FLOWS: AbstractSet[object] = frozenset()


@dataclass(slots=True)
class DirectionStats:
    """Traffic accounting for one direction of a link."""

    bytes_carried: float = 0.0
    drops: int = 0

    def record(self, nbytes: float) -> None:
        self.bytes_carried += nbytes


class LinkDirection:
    """One direction of a duplex link."""

    __slots__ = ("link", "sender", "receiver", "bandwidth_bps", "loss_rate",
                 "stats", "_flows", "_bins", "_sample_interval")

    def __init__(self, link: "Link", sender: "Node", receiver: "Node",
                 bandwidth_bps: float, loss_rate: float) -> None:
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        if not 0 <= loss_rate < 1:
            raise ValueError(f"loss rate must be in [0, 1), got {loss_rate}")
        self.link = link
        self.sender = sender
        self.receiver = receiver
        self.bandwidth_bps = bandwidth_bps
        self.loss_rate = loss_rate
        self.stats = DirectionStats()
        # A set of its own from the first register_flow on.
        self._flows: AbstractSet[object] = _NO_FLOWS
        # bin index -> bytes carried in that interval, from
        # enable_utilization_sampling on. A dict (rather than a
        # flush-on-read sample list) makes mid-run reads
        # non-destructive: utilization_series() just sorts a snapshot.
        self._bins: Optional[Dict[int, float]] = None
        self._sample_interval: Optional[float] = None

    @property
    def name(self) -> str:
        return f"{self.sender.name}->{self.receiver.name}"

    # -- flow registry (for fair sharing) -------------------------------

    def register_flow(self, flow: object) -> None:
        flows = self._flows
        if flows is _NO_FLOWS:
            flows = self._flows = set()
        flows.add(flow)

    def unregister_flow(self, flow: object) -> None:
        if self._flows is not _NO_FLOWS:
            self._flows.discard(flow)

    @property
    def active_flows(self) -> AbstractSet[object]:
        return self._flows

    @property
    def flow_count(self) -> int:
        return len(self._flows)

    # -- accounting ------------------------------------------------------

    def carry(self, now: float, nbytes: float) -> None:
        """Record ``nbytes`` crossing this direction around time ``now``."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        self.stats.record(nbytes)
        if self._sample_interval is not None and nbytes:
            bins = self._bins
            index = int(now // self._sample_interval)
            bins[index] = bins.get(index, 0.0) + nbytes

    def carry_span(self, start: float, end: float, nbytes: float) -> None:
        """Record ``nbytes`` spread uniformly over ``[start, end)``.

        The flow-level bulk path: aggregated background traffic reports
        a whole tick's worth of bytes in one call, and the span is
        apportioned across utilization bins pro rata so the series looks
        the same as if the bytes had been carried continuously.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        if end < start:
            raise ValueError(f"span end {end} before start {start}")
        self.stats.record(nbytes)
        interval = self._sample_interval
        if interval is None or not nbytes:
            return
        bins = self._bins
        first = int(start // interval)
        if end <= start or int(end // interval) == first:
            bins[first] = bins.get(first, 0.0) + nbytes
            return
        rate = nbytes / (end - start)
        last = int(end // interval)
        for index in range(first, last + 1):
            lo = max(start, index * interval)
            hi = min(end, (index + 1) * interval)
            if hi > lo:
                bins[index] = bins.get(index, 0.0) + rate * (hi - lo)

    def enable_utilization_sampling(self, interval: float = 1.0) -> None:
        """Start collecting per-interval utilization samples."""
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self._sample_interval = interval
        if self._bins is None:
            self._bins = {}

    def utilization_series(self) -> List[Tuple[float, float]]:
        """(interval_start, fraction_of_capacity) samples collected so far.

        Non-destructive: reading mid-run returns the in-progress bin's
        partial total and later carries keep accumulating into it.
        """
        interval = self._sample_interval
        if interval is None:
            return []
        capacity_bytes = self.bandwidth_bps * interval / 8
        return [(index * interval, b / capacity_bytes)
                for index, b in sorted(self._bins.items())]

    def peak_utilization(self) -> float:
        """Highest per-interval utilization fraction observed (0.0 if none)."""
        series = self.utilization_series()
        return max((u for _t, u in series), default=0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LinkDirection {self.name} {format_bps(self.bandwidth_bps)}>"


class Link:
    """A duplex link between two nodes.

    ``bandwidth_bps``/``loss_rate`` may differ per direction (asymmetric
    residential links are common pre-FTTH, and the paper's point is the
    switch to symmetric gigabit).
    """

    __slots__ = ("name", "a", "b", "delay", "forward", "reverse", "_up",
                 "routing_weight")

    def __init__(
        self,
        name: str,
        a: "Node",
        b: "Node",
        bandwidth_bps: float,
        delay: float,
        loss_rate: float = 0.0,
        bandwidth_ba_bps: Optional[float] = None,
        loss_rate_ba: Optional[float] = None,
    ) -> None:
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self.name = name
        self.a = a
        self.b = b
        self.delay = delay
        self.forward = LinkDirection(self, a, b, bandwidth_bps, loss_rate)
        self.reverse = LinkDirection(
            self, b, a,
            bandwidth_ba_bps if bandwidth_ba_bps is not None else bandwidth_bps,
            loss_rate_ba if loss_rate_ba is not None else loss_rate,
        )
        self._up = True
        # Set by Network.connect; kept here so restore_link can re-use it.
        self.routing_weight = delay

    def direction(self, sender: "Node") -> LinkDirection:
        """The direction in which ``sender`` transmits."""
        if sender is self.a:
            return self.forward
        if sender is self.b:
            return self.reverse
        raise ValueError(f"{sender.name} is not an endpoint of link {self.name}")

    def other_end(self, node: "Node") -> "Node":
        if node is self.a:
            return self.b
        if node is self.b:
            return self.a
        raise ValueError(f"{node.name} is not an endpoint of link {self.name}")

    @property
    def up(self) -> bool:
        return self._up

    def fail(self) -> None:
        """Take the link down (both directions). Used for failure injection."""
        self._up = False

    def restore(self) -> None:
        self._up = True

    def directions(self) -> Tuple[LinkDirection, LinkDirection]:
        return (self.forward, self.reverse)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Link {self.name} {self.a.name}<->{self.b.name} "
            f"{format_bps(self.forward.bandwidth_bps)} {self.delay * 1e3:.2f}ms>"
        )
