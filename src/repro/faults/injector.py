"""Executes a :class:`~repro.faults.plan.FaultPlan` against a simulation.

The injector turns declarative faults into engine events: it fails and
restores links through the :class:`~repro.net.network.Network` (so
routing reacts), mutates per-direction loss rates and link delays in
place (so established flows feel bursts and spikes), and crashes /
restarts HPoPs (so services lose volatile state and their peers see
timeouts).

Every fault start and end

- emits a ``fault.*`` span through ``sim.tracer`` (blast-radius view in
  ``trace_report.py``),
- bumps per-kind counters in a ``faults`` metrics registry, and
- appends a record to an in-order event log whose
  :meth:`FaultInjector.export_jsonl` output is byte-identical across
  runs from the same seed and plan — the determinism contract the chaos
  tests assert on.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional

from repro.faults.plan import (
    FaultPlan,
    LatencySpike,
    LinkFlap,
    LossBurst,
    NodeCrash,
)
from repro.hpop.core import Hpop
from repro.metrics.counters import MetricsRegistry
from repro.net.link import Link
from repro.net.network import Network
from repro.obs.records import write_jsonl
from repro.sim.engine import Simulator


class FaultError(RuntimeError):
    """A fault references a link or node the world does not contain."""


class FaultInjector:
    """Schedules the faults of a plan and records what actually fired."""

    def __init__(self, sim: Simulator, network: Network,
                 hpops: Iterable[Hpop] = (),
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.sim = sim
        self.network = network
        self.hpops: Dict[str, Hpop] = {}
        for hpop in hpops:
            self.register_hpop(hpop)
        self.metrics = metrics or MetricsRegistry(namespace="faults")
        self._c_injected = self.metrics.counter(
            "faults_injected", "fault activations of any kind")
        self._c_link_flaps = self.metrics.counter(
            "link_flaps", "links taken down")
        self._c_loss_bursts = self.metrics.counter(
            "loss_bursts", "loss/corruption bursts started")
        self._c_latency_spikes = self.metrics.counter(
            "latency_spikes", "latency spikes started")
        self._c_node_crashes = self.metrics.counter(
            "node_crashes", "HPoP nodes crashed")
        self._c_node_restarts = self.metrics.counter(
            "node_restarts", "crashed HPoP nodes brought back")
        self._h_window = self.metrics.histogram(
            "fault_window_seconds", "planned duration of finite faults")
        self._active = 0
        self.metrics.gauge(
            "active_faults", "faults currently in effect"
        ).set_function(lambda: float(self._active))
        # In-order record of every fault event that fired; the unit of
        # the byte-identical export.
        self.events: List[dict] = []

    def register_hpop(self, hpop: Hpop) -> None:
        self.hpops[hpop.host.name] = hpop

    # -- plan execution -----------------------------------------------------

    def apply(self, plan: FaultPlan) -> "FaultInjector":
        """Schedule every fault of ``plan``; validates references eagerly."""
        for fault in plan:
            if isinstance(fault, (LinkFlap, LossBurst, LatencySpike)):
                self._resolve_link(fault.link)  # fail fast on bad refs
                self.sim.at(fault.at, lambda f=fault: self._start(f),
                            label=f"fault.{type(fault).__name__.lower()}")
            elif isinstance(fault, NodeCrash):
                if fault.node not in self.hpops:
                    raise FaultError(
                        f"no registered HPoP on node {fault.node!r}")
                self.sim.at(fault.at, lambda f=fault: self._start(f),
                            label=f"fault.nodecrash.{fault.node}")
            else:  # pragma: no cover - plan type-checks its contents
                raise FaultError(f"unknown fault {fault!r}")
        return self

    def _resolve_link(self, ref: object) -> Link:
        if isinstance(ref, Link):
            return ref
        link = self.network.links.get(str(ref))
        if link is None:
            raise FaultError(f"no link named {ref!r}")
        return link

    def _start(self, fault) -> None:
        self._c_injected.inc()
        self._active += 1
        if isinstance(fault, LinkFlap):
            self._start_link_flap(fault)
        elif isinstance(fault, LossBurst):
            self._start_loss_burst(fault)
        elif isinstance(fault, LatencySpike):
            self._start_latency_spike(fault)
        elif isinstance(fault, NodeCrash):
            self._start_node_crash(fault)

    def _finish(self, span, window: float, restore, label: str) -> None:
        """Common end-of-fault handling: schedule the restore, or mark
        the fault permanent when its window is infinite."""
        if math.isfinite(window):
            self._h_window.observe(window)

            def end() -> None:
                self._active -= 1
                restore()
                span.finish()

            self.sim.schedule(window, end, label=label)
        else:
            span.finish(permanent=True)

    # -- per-kind handlers ---------------------------------------------------

    def _start_link_flap(self, fault: LinkFlap) -> None:
        link = self._resolve_link(fault.link)
        self._c_link_flaps.inc()
        span = self.sim.tracer.start_span(
            "fault.link_flap", parent=None, target=link.name,
            duration=fault.duration)
        self.network.fail_link(link)
        self._log("link_flap_start", link.name, duration=fault.duration)

        def restore() -> None:
            self.network.restore_link(link)
            self._log("link_flap_end", link.name)

        self._finish(span, fault.duration, restore,
                     f"fault.restore.{link.name}")

    def _start_loss_burst(self, fault: LossBurst) -> None:
        link = self._resolve_link(fault.link)
        self._c_loss_bursts.inc()
        span = self.sim.tracer.start_span(
            "fault.loss_burst", parent=None, target=link.name,
            loss_rate=fault.loss_rate, corrupting=fault.corrupting)
        saved = (link.forward.loss_rate, link.reverse.loss_rate)
        link.forward.loss_rate = max(saved[0], fault.loss_rate)
        link.reverse.loss_rate = max(saved[1], fault.loss_rate)
        self._log("loss_burst_start", link.name, loss_rate=fault.loss_rate,
                  corrupting=fault.corrupting)

        def restore() -> None:
            link.forward.loss_rate, link.reverse.loss_rate = saved
            self._log("loss_burst_end", link.name)

        self._finish(span, fault.duration, restore,
                     f"fault.restore.{link.name}")

    def _start_latency_spike(self, fault: LatencySpike) -> None:
        link = self._resolve_link(fault.link)
        self._c_latency_spikes.inc()
        span = self.sim.tracer.start_span(
            "fault.latency_spike", parent=None, target=link.name,
            extra_delay=fault.extra_delay)
        saved = link.delay
        link.delay = saved + fault.extra_delay
        self.network.invalidate_routes()
        self._log("latency_spike_start", link.name,
                  extra_delay=fault.extra_delay)

        def restore() -> None:
            link.delay = saved
            self.network.invalidate_routes()
            self._log("latency_spike_end", link.name)

        self._finish(span, fault.duration, restore,
                     f"fault.restore.{link.name}")

    def _start_node_crash(self, fault: NodeCrash) -> None:
        hpop = self.hpops[fault.node]
        self._c_node_crashes.inc()
        span = self.sim.tracer.start_span(
            "fault.node_crash", parent=None, target=fault.node,
            lose_state=fault.lose_state)
        hpop.crash(lose_state=fault.lose_state)
        self._log("node_crash", fault.node, lose_state=fault.lose_state)

        def restore() -> None:
            hpop.restart()
            self._c_node_restarts.inc()
            self._log("node_restart", fault.node)

        self._finish(span, fault.downtime, restore,
                     f"fault.restart.{fault.node}")

    # -- event log ------------------------------------------------------------

    def _log(self, event: str, target: str, **extra) -> None:
        record = {"t": round(self.sim.now, 9), "event": event,
                  "target": target}
        record.update(extra)
        self.events.append(record)

    def export_jsonl(self, path: str) -> int:
        """Write the fault-event log as JSONL; returns the record count.

        Records carry only simulated-time values and are serialized with
        sorted keys and fixed separators, so two runs from the same seed
        and plan produce byte-identical files.
        """
        return write_jsonl(path, self.events)
