"""The autonomous control plane: signals in, remediation actions out.

PR 3 and PR 4 built a fleet that *detects* trouble — fault injection,
heartbeat death verdicts, SRE-style burn-rate alerts — but nothing ever
acted on an alert. :class:`Controller` closes that loop: it ingests
**signals** (SLO alert transitions from :class:`~repro.obs.slo.
SloMonitor` via :meth:`on_slo_event`, peer death/revival from a
:class:`~repro.faults.detector.HeartbeatMonitor` via
:meth:`on_peer_event`, HPoP restarts from
:class:`~repro.control.service.ControlAgent`), matches them against
registered :class:`ControlRule`\\ s, and executes the
:class:`Proposal`\\ s those rules emit.

Determinism is the same contract as the fault injector's: the
controller never draws randomness, decisions append in sim-event order,
timestamps round to 9 decimals, and :meth:`export_jsonl` serializes
with sorted keys and fixed separators — two runs from one seed produce
byte-identical decision logs.

Two guards keep a flapping link from thrashing the fleet:

- **cooldown**: after a rule acts on a target, further proposals for
  the same ``(rule, target)`` are suppressed (and logged as such) for
  ``rule.cooldown`` sim-seconds;
- **hysteresis**: a rule with ``hysteresis > 1`` only proposes once it
  has seen that many matching signals for one key within
  ``hysteresis_window`` — one stray signal does nothing.

Convergence is measured from alert-fire to alert-resolve: when a firing
alert the controller acted on resolves (not the end-of-run flush), a
``converged`` record lands in the log and the ``control.
convergence_seconds`` histogram — the dashboard's "was the action worth
it" column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.metrics.counters import MetricsRegistry
from repro.obs.records import write_jsonl


@dataclass(frozen=True)
class Signal:
    """One observation delivered to the controller.

    ``kind`` is the event class (``alert``, ``alert_resolved``,
    ``peer_dead``, ``peer_alive``, ``hpop_restart``); ``key`` identifies
    the subject (SLO name, peer name, host name); ``attrs`` carries
    everything else (service, severity, address...).
    """

    kind: str
    key: str
    t: float
    attrs: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Proposal:
    """One concrete action a rule wants executed.

    ``execute`` performs the remediation and may return a dict of
    outcome details merged into the decision record. ``detail`` is
    logged either way (so suppressed proposals still say what they
    *would* have done).
    """

    target: str
    execute: Callable[[], Optional[Dict[str, Any]]]
    detail: Dict[str, Any] = field(default_factory=dict)


class ControlRule:
    """Matches signals and proposes remediations.

    ``kinds`` filters by signal kind; ``matcher`` (optional) refines the
    match; ``propose(signal, controller)`` returns the proposals.
    ``cooldown`` and ``hysteresis``/``hysteresis_window`` are the
    anti-flap guards enforced by the controller (see module docstring).
    """

    def __init__(self, name: str,
                 kinds: Tuple[str, ...],
                 propose: Callable[[Signal, "Controller"], List[Proposal]],
                 matcher: Optional[Callable[[Signal], bool]] = None,
                 cooldown: float = 0.0,
                 hysteresis: int = 1,
                 hysteresis_window: float = 10.0) -> None:
        if hysteresis < 1:
            raise ValueError(f"hysteresis must be >= 1, got {hysteresis}")
        if cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {cooldown}")
        self.name = name
        self.kinds = tuple(kinds)
        self.propose = propose
        self.matcher = matcher
        self.cooldown = cooldown
        self.hysteresis = hysteresis
        self.hysteresis_window = hysteresis_window

    def matches(self, signal: Signal) -> bool:
        if signal.kind not in self.kinds:
            return False
        return self.matcher is None or bool(self.matcher(signal))


class Controller:
    """The per-fleet decision engine (one instance serves many HPoPs).

    Wire it up with :meth:`SloMonitor.add_listener(controller.
    on_slo_event) <repro.obs.slo.SloMonitor.add_listener>`, a
    :class:`~repro.attic.backup_service.PeerBackupService` peer
    listener, and a :class:`~repro.control.service.ControlAgent` per
    appliance; then register rules from :mod:`repro.control.rules`.
    """

    def __init__(self, sim: Any, name: str = "controller",
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.sim = sim
        self.name = name
        self.rules: List[ControlRule] = []
        self.events: List[dict] = []
        self.metrics = metrics or MetricsRegistry(namespace="control")
        self._c_signals = self.metrics.counter(
            "signals_seen", "signals delivered to the controller")
        self._c_executed = self.metrics.counter(
            "actions_executed", "remediation proposals carried out")
        self._c_suppressed = self.metrics.counter(
            "actions_suppressed",
            "proposals blocked by cooldown or hysteresis")
        self._c_messages = self.metrics.counter(
            "messages_sent", "control-plane messages actions generated")
        self._h_convergence = self.metrics.histogram(
            "convergence_seconds",
            "alert-fire to alert-resolve time for acted-on alerts")
        self.metrics.gauge(
            "open_alerts", "firing alerts awaiting resolution"
        ).set_function(lambda: float(len(self._open_alerts)))
        # per-(rule, target) cooldown expiry
        self._cooldown_until: Dict[Tuple[str, str], float] = {}
        # per-(rule, key) hysteresis accumulators: (count, last signal t)
        self._hysteresis: Dict[Tuple[str, str], Tuple[int, float]] = {}
        # slo name -> {"t": fire time, "decisions": executed actions}
        self._open_alerts: Dict[str, Dict[str, Any]] = {}
        # peer name -> down-interval list [(down_t, up_t | None)], for
        # availability-based rules (attic shard migration).
        self._down_intervals: Dict[str, List[List[Optional[float]]]] = {}

    # -- rule registration -------------------------------------------------

    def add_rule(self, rule: ControlRule) -> ControlRule:
        if any(r.name == rule.name for r in self.rules):
            raise ValueError(f"duplicate rule name {rule.name!r}")
        self.rules.append(rule)
        return rule

    # -- signal adapters ---------------------------------------------------

    def on_slo_event(self, record: dict) -> None:
        """Adapter for :meth:`SloMonitor.add_listener`."""
        state = record.get("state")
        attrs = {k: v for k, v in record.items()
                 if k not in ("t", "state", "slo")}
        if state == "firing":
            self.signal("alert", record["slo"], **attrs)
        elif state == "resolved":
            self.signal("alert_resolved", record["slo"], **attrs)

    def on_peer_event(self, state: str, name: str) -> None:
        """Adapter for :meth:`PeerBackupService.add_peer_listener`."""
        self.signal("peer_dead" if state == "dead" else "peer_alive", name)

    # -- ingestion ---------------------------------------------------------

    def signal(self, kind: str, key: str, **attrs: Any) -> List[dict]:
        """Deliver one signal; returns the decision records it produced."""
        sig = Signal(kind=kind, key=key, t=self.sim.now, attrs=attrs)
        self._c_signals.inc()
        self._track_alert_lifecycle(sig)
        self._track_availability(sig)
        produced: List[dict] = []
        for rule in self.rules:
            if not rule.matches(sig):
                continue
            if not self._hysteresis_passes(rule, sig):
                produced.append(self._log_decision(
                    rule, sig, target=sig.key, outcome="hysteresis"))
                self._c_suppressed.inc()
                continue
            for proposal in rule.propose(sig, self):
                produced.append(self._consider(rule, sig, proposal))
        if kind == "alert" and not any(
                d["outcome"] == "executed" for d in produced):
            # Acceptance contract: every fired alert maps to a decision
            # record, even when no rule acted (so the dashboard can show
            # "observed, nothing to do" instead of silence).
            produced.append(self._log_decision(
                None, sig, target=sig.key, outcome="observed"))
        if kind == "alert" and sig.key in self._open_alerts:
            self._open_alerts[sig.key]["decisions"] = sum(
                1 for d in produced if d["outcome"] == "executed")
        return produced

    # -- alert lifecycle / convergence -------------------------------------

    def _track_alert_lifecycle(self, sig: Signal) -> None:
        if sig.kind == "alert":
            self._open_alerts[sig.key] = {"t": sig.t, "decisions": 0}
            return
        if sig.kind != "alert_resolved":
            return
        opened = self._open_alerts.pop(sig.key, None)
        if opened is None:
            return
        if sig.attrs.get("at_run_end"):
            # The end-of-run flush is bookkeeping, not convergence.
            return
        convergence = sig.t - opened["t"]
        self._h_convergence.observe(convergence)
        self.events.append({
            "t": round(self.sim.now, 9), "event": "converged",
            "slo": sig.key, "fired_t": round(opened["t"], 9),
            "convergence_s": round(convergence, 9),
            "decisions": opened["decisions"]})

    # -- availability tracking ---------------------------------------------

    def _track_availability(self, sig: Signal) -> None:
        if sig.kind == "peer_dead":
            intervals = self._down_intervals.setdefault(sig.key, [])
            if not intervals or intervals[-1][1] is not None:
                intervals.append([sig.t, None])
        elif sig.kind == "peer_alive":
            intervals = self._down_intervals.get(sig.key, [])
            if intervals and intervals[-1][1] is None:
                intervals[-1][1] = sig.t

    def availability(self, name: str, window: float) -> float:
        """Fraction of the trailing ``window`` the peer was not dead."""
        if window <= 0:
            return 1.0
        end = self.sim.now
        start = end - window
        down = 0.0
        for d, u in self._down_intervals.get(name, []):
            lo = max(d, start)
            hi = min(u if u is not None else end, end)
            if hi > lo:
                down += hi - lo
        return max(0.0, 1.0 - down / window)

    # -- guards and execution ----------------------------------------------

    def _hysteresis_passes(self, rule: ControlRule, sig: Signal) -> bool:
        if rule.hysteresis <= 1:
            return True
        hkey = (rule.name, sig.key)
        count, last = self._hysteresis.get(hkey, (0, float("-inf")))
        if sig.t - last > rule.hysteresis_window:
            count = 0
        count += 1
        if count >= rule.hysteresis:
            self._hysteresis[hkey] = (0, float("-inf"))
            return True
        self._hysteresis[hkey] = (count, sig.t)
        return False

    def _consider(self, rule: ControlRule, sig: Signal,
                  proposal: Proposal) -> dict:
        ckey = (rule.name, proposal.target)
        until = self._cooldown_until.get(ckey, float("-inf"))
        if self.sim.now < until:
            self._c_suppressed.inc()
            return self._log_decision(
                rule, sig, target=proposal.target, outcome="cooldown",
                cooldown_until=round(until, 9), **proposal.detail)
        self._cooldown_until[ckey] = self.sim.now + rule.cooldown
        span = self.sim.tracer.start_span(
            "control.action", parent=None, rule=rule.name,
            target=proposal.target, trigger=f"{sig.kind}:{sig.key}")
        with self.sim.tracer.activate(span):
            outcome_detail = proposal.execute() or {}
        span.finish(**{k: v for k, v in outcome_detail.items()
                       if isinstance(v, (int, float, str, bool))})
        self._c_executed.inc()
        self._kind_counter(rule.name).inc()
        return self._log_decision(
            rule, sig, target=proposal.target, outcome="executed",
            **{**proposal.detail, **outcome_detail})

    def _kind_counter(self, rule_name: str):
        slug = rule_name.replace("-", "_").replace(".", "_")
        return self.metrics.counter(
            f"actions_{slug}", f"executed actions of rule {rule_name}")

    def count_message(self, n: int = 1) -> None:
        """Rules call this for every control-plane message they send."""
        self._c_messages.inc(n)

    # -- decision log ------------------------------------------------------

    def _log_decision(self, rule: Optional[ControlRule], sig: Signal,
                      target: str, outcome: str, **extra: Any) -> dict:
        record = {"t": round(self.sim.now, 9), "event": "decision",
                  "action": rule.name if rule is not None else "none",
                  "target": target,
                  "trigger": f"{sig.kind}:{sig.key}",
                  "outcome": outcome}
        record.update(extra)
        self.events.append(record)
        return record

    def decisions(self, outcome: Optional[str] = None) -> List[dict]:
        out = [e for e in self.events if e["event"] == "decision"]
        if outcome is not None:
            out = [e for e in out if e["outcome"] == outcome]
        return out

    def convergences(self) -> List[dict]:
        return [e for e in self.events if e["event"] == "converged"]

    def export_jsonl(self, path: str) -> int:
        """Write the decision log as JSONL; returns the record count.

        Same determinism contract as ``FaultInjector.export_jsonl``:
        sim-time-only values, sorted keys, fixed separators — byte-
        identical across runs from one seed.
        """
        return write_jsonl(path, self.events)
