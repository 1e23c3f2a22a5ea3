"""Declarative service-level objectives over TSDB windows.

An :class:`SloSpec` names a service-level indicator (an error fraction
computed from :class:`~repro.obs.timeseries.TimeSeriesDB` series), an
objective (the fraction of good events promised, e.g. ``0.99``), and
one or more multi-window **burn-rate rules** in the Google SRE style:
an alert fires when the error budget is being consumed at ``threshold``
times the sustainable rate over *both* a long window (significance)
and a short window (recency, so alerts resolve quickly once the fault
clears).

The :class:`SloMonitor` evaluates every spec on a sim-time cadence,
emits ``slo.alert`` spans through the simulator's tracer (so alerts
land in the same trace as the ``fault.*`` spans that caused them),
counts alerts in a metrics registry, and keeps a deterministic JSONL
event log — same contract as the fault injector's, byte-identical
across runs from one seed. :func:`correlate_alerts` then joins the
alert log against a fault-event log to answer "which injected fault
burned this budget".
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.metrics.counters import MetricsRegistry
from repro.obs.timeseries import TimeSeriesDB


# -- service-level indicators ------------------------------------------------


@dataclass(frozen=True)
class RatioSli:
    """Error fraction = delta(bad) / delta(total) over the window.

    ``bad`` and ``total`` each name one or more counter series (their
    deltas sum); a window with no ``total`` increase has error rate 0 —
    no traffic means no budget burned.
    """

    total: Tuple[str, ...]
    bad: Tuple[str, ...]

    def error_rate(self, db: TimeSeriesDB, start: float, end: float) -> float:
        total = db.sum_delta(self.total, end - start, end)
        if total <= 0:
            return 0.0
        bad = db.sum_delta(self.bad, end - start, end)
        return min(1.0, bad / total)


@dataclass(frozen=True)
class ThresholdSli:
    """Error fraction = share of window samples violating a bound.

    For gauge series (histogram quantiles, staleness ages): a sample
    ``> max_value`` is bad. A window with no samples has error rate 0.
    """

    metric: str
    max_value: float

    def error_rate(self, db: TimeSeriesDB, start: float, end: float) -> float:
        series = db.series.get(self.metric)
        if series is None:
            return 0.0
        window = series.window(start, end)
        if not window:
            return 0.0
        bad = sum(1 for _t, v in window if v > self.max_value)
        return bad / len(window)


# -- specs -------------------------------------------------------------------


@dataclass(frozen=True)
class BurnRule:
    """One multi-window burn-rate alerting rule."""

    severity: str          # "fast" (page) or "slow" (ticket), by convention
    long_window: float     # sim seconds of sustained burn required
    short_window: float    # sim seconds of *current* burn required
    threshold: float       # burn-rate multiple that fires the rule


# Scaled-down defaults of the SRE-workbook 1h/5m + 6h/30m pairs: sim
# scenarios play out over tens of seconds, not days.
DEFAULT_RULES: Tuple[BurnRule, ...] = (
    BurnRule("fast", long_window=10.0, short_window=2.0, threshold=4.0),
    BurnRule("slow", long_window=30.0, short_window=6.0, threshold=1.5),
)


@dataclass(frozen=True)
class SloSpec:
    """One service objective evaluated against the TSDB."""

    name: str
    service: str
    objective: float                 # promised good fraction in (0, 1)
    sli: Any                         # RatioSli | ThresholdSli
    rules: Tuple[BurnRule, ...] = DEFAULT_RULES
    description: str = ""
    # Unprefixed namespaced metric name (e.g. "nocdn.page_load_seconds")
    # whose ExemplarStore ring is searched for the worst request in a
    # firing alert's burn window. Empty = no exemplar linking.
    exemplar_metric: str = ""

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ValueError(
                f"SLO {self.name}: objective must be in (0, 1), "
                f"got {self.objective}")

    @property
    def budget(self) -> float:
        """The error budget: tolerable long-run error fraction."""
        return 1.0 - self.objective

    def burn_rate(self, db: TimeSeriesDB, window: float,
                  end: float) -> float:
        """Budget-consumption multiple over the trailing ``window``."""
        return self.sli.error_rate(db, end - window, end) / self.budget


# -- monitor -----------------------------------------------------------------


class SloMonitor:
    """Evaluates SLO specs on a sim-time cadence and raises alerts.

    Alert lifecycle: a spec is *firing* while any of its rules burns
    above threshold on both windows; the transition into and out of
    that state appends a record to :attr:`events` (deterministic, like
    the fault log) and opens/finishes an ``slo.alert`` span so traces
    show alert intervals alongside ``fault.*`` spans.
    """

    def __init__(self, sim: Any, db: TimeSeriesDB,
                 specs: Iterable[SloSpec], interval: float = 1.0,
                 metrics: Optional[MetricsRegistry] = None,
                 exemplars: Optional[Any] = None) -> None:
        if interval <= 0:
            raise ValueError(f"eval interval must be positive: {interval}")
        self.sim = sim
        self.db = db
        self.specs: List[SloSpec] = list(specs)
        names = [spec.name for spec in self.specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names: {sorted(names)}")
        self.interval = interval
        self.metrics = metrics or MetricsRegistry(namespace="slo")
        self._c_fired = self.metrics.counter(
            "alerts_fired", "burn-rate alerts that started firing")
        self._c_resolved = self.metrics.counter(
            "alerts_resolved", "burn-rate alerts that stopped firing")
        self.metrics.gauge(
            "alerts_active", "SLOs currently in the firing state"
        ).set_function(lambda: float(len(self._active)))
        # Optional repro.obs.sampling.ExemplarStore: firing alerts then
        # carry the worst in-window request's trace id and pin that
        # trace through the tail sampler so it is guaranteed exported.
        self.exemplars = exemplars
        self.events: List[dict] = []
        self._active: Dict[str, Any] = {}   # spec name -> open alert span
        self._listeners: List[Any] = []
        # Imported here: the engine imports repro.obs for its tracer.
        from repro.sim.engine import Process
        self._process = Process(sim, "slo")
        self.started_at: Optional[float] = None

    def add_listener(self, fn) -> None:
        """Register ``fn(record)`` to be called synchronously for every
        appended alert record (firing and resolved) — the control
        plane's subscription point. Listeners run in registration
        order inside the evaluation event, so they perturb nothing
        about alert timing."""
        self._listeners.append(fn)

    # -- cadence ----------------------------------------------------------

    def start(self) -> "SloMonitor":
        if self.started_at is None:
            self.started_at = self.sim.now
            self._process.every(self.interval, self.evaluate,
                                label="slo.evaluate")
        return self

    def stop(self) -> None:
        self._process.stop()

    # -- evaluation -------------------------------------------------------

    def evaluate(self) -> List[dict]:
        """Evaluate every spec now; returns records appended this pass."""
        now = self.sim.now
        appended: List[dict] = []
        for spec in self.specs:
            fired_rule: Optional[BurnRule] = None
            burn_long = burn_short = 0.0
            for rule in spec.rules:
                b_long = spec.burn_rate(self.db, rule.long_window, now)
                b_short = spec.burn_rate(self.db, rule.short_window, now)
                if b_long >= rule.threshold and b_short >= rule.threshold:
                    fired_rule, burn_long, burn_short = rule, b_long, b_short
                    break
            was_active = spec.name in self._active
            if fired_rule is not None and not was_active:
                span = self.sim.tracer.start_span(
                    "slo.alert", parent=None, slo=spec.name,
                    service=spec.service, severity=fired_rule.severity)
                self._active[spec.name] = span
                self._c_fired.inc()
                extra: Dict[str, Any] = {}
                if self.exemplars is not None and spec.exemplar_metric:
                    worst = self.exemplars.worst(
                        spec.exemplar_metric,
                        now - fired_rule.long_window, now)
                    if worst is not None:
                        ex_t, ex_value, ex_trace = worst
                        self.exemplars.pin(ex_trace)
                        span.set(exemplar_trace=ex_trace)
                        extra = {"exemplar_trace": ex_trace,
                                 "exemplar_value": round(ex_value, 9),
                                 "exemplar_t": round(ex_t, 9)}
                appended.append(self._log(
                    "firing", spec, severity=fired_rule.severity,
                    burn_long=round(burn_long, 6),
                    burn_short=round(burn_short, 6),
                    long_window=fired_rule.long_window,
                    short_window=fired_rule.short_window, **extra))
            elif fired_rule is None and was_active:
                span = self._active.pop(spec.name)
                span.finish(resolved_at=round(now, 9))
                self._c_resolved.inc()
                appended.append(self._log("resolved", spec))
        return appended

    def _log(self, state: str, spec: SloSpec, **extra) -> dict:
        record = {"t": round(self.sim.now, 9), "state": state,
                  "slo": spec.name, "service": spec.service,
                  "objective": spec.objective}
        record.update(extra)
        self.events.append(record)
        for fn in self._listeners:
            fn(record)
        return record

    def finish(self) -> None:
        """End-of-run: resolve anything still firing (spans must close)."""
        for name in list(self._active):
            span = self._active.pop(name)
            span.finish(resolved_at=round(self.sim.now, 9), at_run_end=True)
            self._c_resolved.inc()
            spec = next(s for s in self.specs if s.name == name)
            self._log("resolved", spec, at_run_end=True)

    # -- verdicts ---------------------------------------------------------

    def verdicts(self) -> List[Dict[str, Any]]:
        """Whole-run compliance per spec (the dashboard's headline table)."""
        now = self.sim.now
        start = self.started_at if self.started_at is not None else 0.0
        out: List[Dict[str, Any]] = []
        for spec in self.specs:
            error_rate = spec.sli.error_rate(self.db, start, now)
            alerts = sum(1 for e in self.events
                         if e["slo"] == spec.name and e["state"] == "firing")
            out.append({
                "slo": spec.name,
                "service": spec.service,
                "objective": spec.objective,
                "error_rate": round(error_rate, 6),
                "budget_spent": round(min(1.0, error_rate / spec.budget), 6)
                if spec.budget else 1.0,
                "met": error_rate <= spec.budget,
                "alerts": alerts,
                "description": spec.description,
            })
        return out

    # -- export -----------------------------------------------------------

    def export_jsonl(self, path: str) -> int:
        """Alert log + trailing verdict records, deterministically encoded."""
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.events:
                fh.write(json.dumps(record, sort_keys=True,
                                    separators=(",", ":")))
                fh.write("\n")
            for verdict in self.verdicts():
                fh.write(json.dumps({"kind": "verdict", **verdict},
                                    sort_keys=True, separators=(",", ":")))
                fh.write("\n")
        return len(self.events) + len(self.specs)


# -- alert/fault correlation -------------------------------------------------


def correlate_alerts(
    alerts: Sequence[dict], fault_events: Sequence[dict],
    lookback: float = 10.0,
) -> List[Dict[str, Any]]:
    """Join firing alerts to the fault events that plausibly caused them.

    For each ``state == "firing"`` alert, collects fault-log records
    whose timestamp falls in ``[alert.t - lookback, alert.t]`` — the
    budget burned *after* the fault hit, so the fault precedes the
    alert. Returns one row per firing alert with its candidate causes,
    nearest-first.
    """
    rows: List[Dict[str, Any]] = []
    for alert in alerts:
        if alert.get("state") != "firing":
            continue
        t = float(alert["t"])
        causes = [f for f in fault_events
                  if t - lookback <= float(f["t"]) <= t]
        causes.sort(key=lambda f: (t - float(f["t"]),
                                   f.get("event", ""), f.get("target", "")))
        rows.append({"alert": alert, "causes": causes})
    return rows


def merge_verdicts(
    verdicts_by_run: "Dict[str, Sequence[dict]]",
) -> Tuple[List[Dict[str, Any]], Dict[str, Dict[str, bool]]]:
    """Join per-run SLO verdicts into cross-run pass-rate rows.

    ``verdicts_by_run`` maps a run id (study cell id, seed label...)
    to the verdict records its ``SloMonitor.export_jsonl`` produced.
    Returns ``(pass_rates, matrix)``:

    - ``pass_rates``: one row per SLO name, sorted, with how many runs
      met it, the mean error rate / budget spent across runs, and the
      total alerts fired — the statistically defensible version of a
      single run's MET/VIOLATED cell.
    - ``matrix``: ``run id -> {slo name -> met}`` for the dashboard's
      per-seed verdict matrix.

    Input order never matters: rows aggregate commutatively and both
    outputs sort by name, so any permutation of runs merges to the
    same result (property-tested in ``tests/experiments``).
    """
    by_slo: Dict[str, List[dict]] = {}
    matrix: Dict[str, Dict[str, bool]] = {}
    for run_id in sorted(verdicts_by_run):
        row: Dict[str, bool] = {}
        for verdict in verdicts_by_run[run_id]:
            by_slo.setdefault(verdict["slo"], []).append(verdict)
            row[verdict["slo"]] = bool(verdict["met"])
        matrix[run_id] = dict(sorted(row.items()))
    pass_rates: List[Dict[str, Any]] = []
    for name in sorted(by_slo):
        rows = by_slo[name]
        met = sum(1 for v in rows if v["met"])
        pass_rates.append({
            "slo": name,
            "service": rows[0].get("service", "?"),
            "objective": rows[0].get("objective", 0.0),
            "runs": len(rows),
            "met": met,
            "pass_rate": round(met / len(rows), 6),
            "mean_error_rate": round(
                sum(float(v.get("error_rate", 0.0)) for v in rows)
                / len(rows), 6),
            "mean_budget_spent": round(
                sum(float(v.get("budget_spent", 0.0)) for v in rows)
                / len(rows), 6),
            "alerts": sum(int(v.get("alerts", 0)) for v in rows),
        })
    return pass_rates, matrix


def load_slo_jsonl(path: str) -> Tuple[List[dict], List[dict]]:
    """Split an exported SLO log into (alert events, verdicts)."""
    events: List[dict] = []
    verdicts: List[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            raw = json.loads(line)
            if raw.get("kind") == "verdict":
                verdicts.append(raw)
            else:
                events.append(raw)
    return events, verdicts
