"""The unified run dashboard: one report per simulation run.

Merges the artifacts a fully instrumented run exports — the trace
JSONL, the TSDB export, the fault-event log, the SLO alert/verdict
log, and the control plane's remediation decision log (plus an
optional profiler summary) — into a single self-contained document,
as markdown or HTML. When the decision log is present, every alert
shows the remediation actions it triggered and the measured
convergence time (fire → resolve). ``scripts/dashboard_report.py`` is the
CLI; ``make dashboard`` runs the chaos scenario under full telemetry
and renders the result.

Everything here is read-side: the dashboard never recomputes SLIs or
re-runs anything, it only joins and renders what the run exported, so
a dashboard can be rebuilt from archived artifacts long after the run.
"""

from __future__ import annotations

import html as html_mod
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.report import (Trace, exemplar_path, hotspots, load_trace,
                              span_table)
from repro.obs.slo import correlate_alerts, load_slo_jsonl
from repro.obs.timeseries import Series, load_jsonl as load_tsdb
from repro.obs.trace import iter_jsonl

SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(points: Sequence[Tuple[float, float]], width: int = 40) -> str:
    """A unicode sparkline over ``(t, value)`` points, time-bucketed.

    Buckets the time range into ``width`` columns and plots each
    column's max (gaps render as the lowest block), so bursts survive
    downsampling to terminal width.
    """
    if not points:
        return ""
    t0, t1 = points[0][0], points[-1][0]
    values = [v for _t, v in points]
    lo, hi = min(values), max(values)
    if t1 <= t0 or hi <= lo:
        return SPARK_BLOCKS[0] * min(width, max(1, len(points)))
    cols: List[Optional[float]] = [None] * width
    for t, v in points:
        i = min(width - 1, int((t - t0) / (t1 - t0) * width))
        cols[i] = v if cols[i] is None else max(cols[i], v)
    out = []
    for v in cols:
        if v is None:
            out.append(SPARK_BLOCKS[0])
        else:
            out.append(SPARK_BLOCKS[min(
                len(SPARK_BLOCKS) - 1,
                int((v - lo) / (hi - lo) * (len(SPARK_BLOCKS) - 1)))])
    return "".join(out)


@dataclass
class RunArtifacts:
    """Everything one instrumented run exported, loaded and parsed."""

    trace: Optional[Trace] = None
    tsdb: Dict[str, Series] = field(default_factory=dict)
    faults: List[dict] = field(default_factory=list)
    slo_events: List[dict] = field(default_factory=list)
    slo_verdicts: List[dict] = field(default_factory=list)
    control: List[dict] = field(default_factory=list)
    profile: Dict[str, Any] = field(default_factory=dict)
    title: str = "simulation run"

    @classmethod
    def load(cls, trace_path: Optional[str] = None,
             tsdb_path: Optional[str] = None,
             faults_path: Optional[str] = None,
             slo_path: Optional[str] = None,
             control_path: Optional[str] = None,
             profile_path: Optional[str] = None,
             title: str = "simulation run") -> "RunArtifacts":
        art = cls(title=title)
        if trace_path:
            art.trace = load_trace(trace_path)
        if tsdb_path:
            art.tsdb = load_tsdb(tsdb_path)
        if faults_path:
            art.faults = list(iter_jsonl(faults_path))
        if slo_path:
            art.slo_events, art.slo_verdicts = load_slo_jsonl(slo_path)
        if control_path:
            art.control = list(iter_jsonl(control_path))
        if profile_path:
            with open(profile_path, "r", encoding="utf-8") as fh:
                art.profile = json.load(fh)
        return art

    def correlations(self, lookback: float = 10.0) -> List[Dict[str, Any]]:
        return correlate_alerts(self.slo_events, self.faults,
                                lookback=lookback)

    def control_decisions(self) -> List[dict]:
        return [r for r in self.control if r.get("event") == "decision"]

    def control_convergences(self) -> List[dict]:
        return [r for r in self.control if r.get("event") == "converged"]


@dataclass
class StudyArtifacts:
    """A merged study summary plus the wall-clock extras around it.

    The ``summary`` dict is the deterministic ``summary.json`` a study
    writes (see :mod:`repro.experiments.summary`); wall times and the
    slowest cell's profile live in per-cell manifests *outside* the
    byte-identity contract, so they are loaded separately here. Plain
    JSON reads only — no dependency on the experiments package, same
    read-side posture as :class:`RunArtifacts`.
    """

    summary: Dict[str, Any] = field(default_factory=dict)
    wall_by_cell: Dict[str, float] = field(default_factory=dict)
    slowest_cell: str = ""
    slowest_profile: Dict[str, Any] = field(default_factory=dict)
    title: str = "study"

    @classmethod
    def load(cls, study_dir: str, title: Optional[str] = None,
             ) -> "StudyArtifacts":
        import pathlib

        root = pathlib.Path(study_dir)
        summary = json.loads((root / "summary.json").read_text(
            encoding="utf-8"))
        wall: Dict[str, float] = {}
        cells_root = root / "cells"
        if cells_root.is_dir():
            for manifest_path in sorted(cells_root.glob("*/manifest.json")):
                raw = json.loads(manifest_path.read_text(encoding="utf-8"))
                wall[raw["cell"]] = float(raw.get("wall_s", 0.0))
        slowest = max(sorted(wall), key=lambda c: wall[c]) if wall else ""
        profile: Dict[str, Any] = {}
        if slowest:
            profile_path = cells_root / slowest / "profile.json"
            if profile_path.is_file():
                profile = json.loads(profile_path.read_text(
                    encoding="utf-8"))
        name = summary.get("study", {}).get("name", root.name)
        return cls(summary=summary, wall_by_cell=wall,
                   slowest_cell=slowest, slowest_profile=profile,
                   title=title or f"study {name}")


# -- section builders (shared rows for both renderers) -----------------------


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e12:
        return str(int(value))
    return f"{value:.4g}"


def _verdict_rows(art: RunArtifacts) -> List[List[str]]:
    rows = []
    for v in art.slo_verdicts:
        rows.append([
            v["slo"], v["service"], f"{v['objective']:.2%}",
            f"{v['error_rate']:.2%}", f"{v['budget_spent']:.0%}",
            "MET" if v["met"] else "VIOLATED", str(v["alerts"])])
    return rows


def _alert_rows(art: RunArtifacts, lookback: float) -> List[Dict[str, Any]]:
    decisions = art.control_decisions()
    convergences = {(c["slo"], c["fired_t"]): c
                    for c in art.control_convergences()}
    rows = []
    for match in art.correlations(lookback):
        alert = match["alert"]
        causes = [
            f"t={float(f['t']):.2f} {f.get('event', '?')}"
            f" on {f.get('target', '?')}" for f in match["causes"][:5]]
        acted = [d for d in decisions
                 if d["trigger"] == f"alert:{alert['slo']}"
                 and d["t"] == alert["t"]]
        conv = convergences.get((alert["slo"], alert["t"]))
        rows.append({
            "t": float(alert["t"]),
            "slo": alert["slo"],
            "severity": alert.get("severity", "?"),
            "burn": (f"{alert.get('burn_long', 0):.1f}x / "
                     f"{alert.get('burn_short', 0):.1f}x"),
            "causes": causes,
            "decisions": [f"{d['action']} on {d['target']} "
                          f"({d['outcome']})" for d in acted[:5]],
            "convergence_s": (float(conv["convergence_s"])
                              if conv else None),
            "exemplar_trace": alert.get("exemplar_trace"),
            "exemplar_value": alert.get("exemplar_value"),
            "exemplar_t": alert.get("exemplar_t"),
        })
    return rows


def _exemplar_frames(art: RunArtifacts, row: Dict[str, Any],
                     top: int = 6) -> List[str]:
    """Rendered critical-path frames of an alert's exemplar trace.

    The alert → exemplar trace → critical path join: resolves the
    exemplar trace id recorded on the alert against the loaded trace
    export and renders the chain through its slowest span.
    """
    trace_id = row.get("exemplar_trace")
    if trace_id is None or art.trace is None:
        return []
    frames = []
    for record in exemplar_path(art.trace, int(trace_id))[:top]:
        frames.append(f"t={record.start:.3f} "
                      f"+{record.duration * 1e3:.2f}ms "
                      f"[{record.kind}] {record.name}")
    return frames


def _control_summary(art: RunArtifacts) -> List[List[str]]:
    """One row per (action, outcome): count plus distinct targets."""
    grouped: Dict[Tuple[str, str], List[str]] = {}
    for d in art.control_decisions():
        grouped.setdefault((d["action"], d["outcome"]), []).append(
            d["target"])
    rows = []
    for (action, outcome) in sorted(grouped):
        targets = grouped[(action, outcome)]
        rows.append([action, outcome, str(len(targets)),
                     str(len(set(targets)))])
    return rows


def _fault_summary(art: RunArtifacts) -> List[List[str]]:
    by_kind: Dict[str, List[float]] = {}
    for record in art.faults:
        by_kind.setdefault(record.get("event", "?"), []).append(
            float(record["t"]))
    rows = []
    for kind in sorted(by_kind):
        times = by_kind[kind]
        rows.append([kind, str(len(times)), f"{min(times):.2f}",
                     f"{max(times):.2f}"])
    return rows


KEY_SERIES_HINTS = (
    "active_faults", "page_load_seconds_p99", "chunk_fetch_failures",
    "alerts_active", "time_to_repair", "degraded_serves",
)


def _key_series(art: RunArtifacts, limit: int = 12) -> List[Tuple[str, Series]]:
    """The series worth a sparkline: hinted names first, then the rest."""
    hinted, rest = [], []
    for name in sorted(art.tsdb):
        series = art.tsdb[name]
        if len(series.points) < 2:
            continue
        values = {v for _t, v in series.points}
        if len(values) < 2:
            continue  # flatlines earn no pixels
        if any(hint in name for hint in KEY_SERIES_HINTS):
            hinted.append((name, series))
        else:
            rest.append((name, series))
    return (hinted + rest)[:limit]


def _span_rows(trace: Trace, top: int = 10) -> List[List[str]]:
    return [[name, str(count), f"{mean_ * 1e3:.2f}", f"{p50 * 1e3:.2f}",
             f"{p99 * 1e3:.2f}"]
            for name, count, mean_, p50, p99 in span_table(trace)[:top]]


def _hotspot_rows(trace: Trace, top: int = 10) -> List[List[str]]:
    return [[label, str(count), f"{wall * 1e3:.2f}", f"{share:.1%}"]
            for label, count, wall, share in hotspots(trace, top=top)]


def _profile_rows(art: RunArtifacts, top: int = 10) -> List[List[str]]:
    labels = art.profile.get("labels", {})
    ranked = sorted(labels.items(), key=lambda kv: -kv[1]["wall_s"])[:top]
    total = art.profile.get("wall_seconds") or 1.0
    return [[label, str(stat["count"]), f"{stat['wall_s'] * 1e3:.2f}",
             f"{stat['wall_s'] / total:.1%}"] for label, stat in ranked]


def _truncation_note(trace: Trace) -> str:
    """The truncated-trace warning both renderers print."""
    breakdown = ""
    if trace.dropped_by_kind:
        breakdown = " (" + ", ".join(
            f"{kind}: {count}" for kind, count
            in sorted(trace.dropped_by_kind.items())) + ")"
    return (f"trace truncated — {trace.dropped} spans dropped by the "
            f"ring buffer{breakdown}.")


# -- markdown renderer -------------------------------------------------------


def _md_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def build_markdown(art: RunArtifacts, lookback: float = 10.0) -> str:
    """The whole dashboard as one markdown document."""
    out: List[str] = [f"# Run dashboard — {art.title}", ""]

    firing = [e for e in art.slo_events if e.get("state") == "firing"]
    met = sum(1 for v in art.slo_verdicts if v["met"])
    executed = [d for d in art.control_decisions()
                if d["outcome"] == "executed"]
    out.append(
        f"**{met}/{len(art.slo_verdicts)} SLOs met** · "
        f"{len(firing)} burn-rate alerts · "
        f"{len(art.faults)} fault events · "
        f"{len(art.tsdb)} time series"
        + (f" · {len(executed)} remediation actions" if art.control else "")
        + (f" · wall/sim ratio {art.profile.get('wall_sim_ratio', 0):.4f}"
           if art.profile else ""))
    out.append("")

    if art.slo_verdicts:
        out += ["## SLO verdicts", "",
                _md_table(("SLO", "service", "objective", "error rate",
                           "budget spent", "verdict", "alerts"),
                          _verdict_rows(art)), ""]

    out.append("## Burn-rate alerts and correlated faults")
    out.append("")
    alert_rows = _alert_rows(art, lookback)
    if alert_rows:
        for row in alert_rows:
            out.append(f"- **t={row['t']:.2f}** `{row['slo']}` "
                       f"({row['severity']}, burn {row['burn']})")
            if row["causes"]:
                for cause in row["causes"]:
                    out.append(f"  - likely cause: {cause}")
            else:
                out.append("  - no fault event within the lookback window")
            for decision in row["decisions"]:
                out.append(f"  - remediation: {decision}")
            if row["convergence_s"] is not None:
                out.append(f"  - converged in {row['convergence_s']:.2f}s")
            elif art.control:
                out.append("  - not converged by run end")
            if row["exemplar_trace"] is not None:
                out.append(
                    f"  - exemplar: trace `{row['exemplar_trace']}`, worst "
                    f"request {row.get('exemplar_value', 0):.3f}s at "
                    f"t={row.get('exemplar_t', 0):.2f}")
                for frame in _exemplar_frames(art, row):
                    out.append(f"    - {frame}")
    else:
        out.append("(no alerts fired)")
    out.append("")

    if art.control:
        out += ["## Remediation decisions", "",
                _md_table(("action", "outcome", "count", "targets"),
                          _control_summary(art)), ""]
        conv = art.control_convergences()
        if conv:
            mean_s = sum(c["convergence_s"] for c in conv) / len(conv)
            out += [f"{len(conv)} alerts converged, mean "
                    f"{mean_s:.2f}s fire→resolve.", ""]

    if art.faults:
        out += ["## Fault timeline", "",
                _md_table(("fault event", "count", "first t", "last t"),
                          _fault_summary(art)), ""]

    key = _key_series(art)
    if key:
        out += ["## Key time series", ""]
        rows = []
        for name, series in key:
            last = series.points[-1][1]
            rows.append([f"`{name}`", sparkline(series.points),
                         _fmt(last), str(series.resolution)])
        out += [_md_table(("series", "sparkline", "last", "res"), rows), ""]

    if art.trace is not None and art.trace.records:
        if art.trace.dropped:
            out.append(f"> **WARNING:** {_truncation_note(art.trace)}")
            out.append("")
        if art.trace.sampling:
            s = art.trace.sampling
            out.append(
                f"Tail sampling: {s.get('traces_kept', 0)}/"
                f"{s.get('traces_seen', 0)} traces kept at rate "
                f"{s.get('rate', 0)} ({s.get('spans_kept', 0)} spans); "
                f"{s.get('pins_missed', 0)} exemplar pins missed.")
            out.append("")
        out += ["## Span latency (simulated time, top 10)", "",
                _md_table(("span", "count", "mean ms", "p50 ms", "p99 ms"),
                          _span_rows(art.trace)), ""]
        hot = _hotspot_rows(art.trace)
        if hot:
            out += ["## Trace hotspots by event label", "",
                    _md_table(("label", "count", "wall ms", "share"), hot),
                    ""]

    if art.profile:
        out += ["## Event-loop profile (host CPU)", "",
                f"{art.profile.get('events', 0)} events · "
                f"{art.profile.get('wall_seconds', 0) * 1e3:.1f} ms wall · "
                f"{art.profile.get('events_per_second', 0):,.0f} events/s · "
                f"wall/sim ratio "
                f"{art.profile.get('wall_sim_ratio', 0):.4f}", "",
                _md_table(("label", "count", "wall ms", "share"),
                          _profile_rows(art)), ""]

    return "\n".join(out)


# -- HTML renderer -----------------------------------------------------------

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 70rem; color: #1a1a2e;
       line-height: 1.45; }
h1 { border-bottom: 2px solid #4a4e69; padding-bottom: .3rem; }
h2 { margin-top: 2rem; color: #22223b; }
table { border-collapse: collapse; margin: .5rem 0; font-size: .9rem; }
th, td { border: 1px solid #c9cad9; padding: .3rem .6rem; text-align: left; }
th { background: #f2f3f7; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.spark { font-family: monospace; letter-spacing: -1px; color: #3a6ea5; }
.met { color: #1b7837; font-weight: 600; }
.violated { color: #b2182b; font-weight: 600; }
.warn { background: #fff3cd; border: 1px solid #ffe08a;
        padding: .5rem .8rem; border-radius: 4px; }
code { background: #f2f3f7; padding: 0 .25rem; border-radius: 3px; }
ul.alerts li { margin-bottom: .4rem; }
.summary { font-size: 1.05rem; }
"""


def _html_table(headers: Sequence[str], rows: Sequence[Sequence[str]],
                spark_col: Optional[int] = None) -> str:
    esc = html_mod.escape
    parts = ["<table><tr>"]
    parts += [f"<th>{esc(h)}</th>" for h in headers]
    parts.append("</tr>")
    for row in rows:
        parts.append("<tr>")
        for i, cell in enumerate(row):
            klass = ""
            if cell == "MET":
                klass = ' class="met"'
            elif cell == "VIOLATED":
                klass = ' class="violated"'
            elif spark_col is not None and i == spark_col:
                klass = ' class="spark"'
            parts.append(f"<td{klass}>{esc(cell)}</td>")
        parts.append("</tr>")
    parts.append("</table>")
    return "".join(parts)


def build_html(art: RunArtifacts, lookback: float = 10.0) -> str:
    """The whole dashboard as one self-contained HTML page."""
    esc = html_mod.escape
    body: List[str] = [f"<h1>Run dashboard — {esc(art.title)}</h1>"]

    firing = [e for e in art.slo_events if e.get("state") == "firing"]
    met = sum(1 for v in art.slo_verdicts if v["met"])
    summary = (f"<b>{met}/{len(art.slo_verdicts)} SLOs met</b> · "
               f"{len(firing)} burn-rate alerts · "
               f"{len(art.faults)} fault events · "
               f"{len(art.tsdb)} time series")
    if art.control:
        executed = [d for d in art.control_decisions()
                    if d["outcome"] == "executed"]
        summary += f" · {len(executed)} remediation actions"
    if art.profile:
        summary += (f" · wall/sim ratio "
                    f"{art.profile.get('wall_sim_ratio', 0):.4f}")
    body.append(f'<p class="summary">{summary}</p>')

    if art.slo_verdicts:
        body.append("<h2>SLO verdicts</h2>")
        body.append(_html_table(
            ("SLO", "service", "objective", "error rate", "budget spent",
             "verdict", "alerts"), _verdict_rows(art)))

    body.append("<h2>Burn-rate alerts and correlated faults</h2>")
    alert_rows = _alert_rows(art, lookback)
    if alert_rows:
        body.append('<ul class="alerts">')
        for row in alert_rows:
            causes = "".join(f"<li>likely cause: {esc(c)}</li>"
                             for c in row["causes"]) or \
                "<li>no fault event within the lookback window</li>"
            causes += "".join(f"<li>remediation: {esc(d)}</li>"
                              for d in row["decisions"])
            if row["convergence_s"] is not None:
                causes += (f"<li>converged in "
                           f"{row['convergence_s']:.2f}s</li>")
            elif art.control:
                causes += "<li>not converged by run end</li>"
            if row["exemplar_trace"] is not None:
                frames = "".join(
                    f"<li><code>{esc(frame)}</code></li>"
                    for frame in _exemplar_frames(art, row))
                causes += (
                    f"<li>exemplar: trace "
                    f"<code>{esc(str(row['exemplar_trace']))}</code>, worst "
                    f"request {row.get('exemplar_value', 0):.3f}s at "
                    f"t={row.get('exemplar_t', 0):.2f}"
                    + (f"<ul>{frames}</ul>" if frames else "") + "</li>")
            body.append(
                f"<li><b>t={row['t']:.2f}</b> <code>{esc(row['slo'])}</code> "
                f"({esc(row['severity'])}, burn {esc(row['burn'])})"
                f"<ul>{causes}</ul></li>")
        body.append("</ul>")
    else:
        body.append("<p>(no alerts fired)</p>")

    if art.control:
        body.append("<h2>Remediation decisions</h2>")
        body.append(_html_table(("action", "outcome", "count", "targets"),
                                _control_summary(art)))
        conv = art.control_convergences()
        if conv:
            mean_s = sum(c["convergence_s"] for c in conv) / len(conv)
            body.append(f"<p>{len(conv)} alerts converged, mean "
                        f"{mean_s:.2f}s fire→resolve.</p>")

    if art.faults:
        body.append("<h2>Fault timeline</h2>")
        body.append(_html_table(
            ("fault event", "count", "first t", "last t"),
            _fault_summary(art)))

    key = _key_series(art)
    if key:
        body.append("<h2>Key time series</h2>")
        rows = []
        for name, series in key:
            rows.append([name, sparkline(series.points),
                         _fmt(series.points[-1][1]), str(series.resolution)])
        body.append(_html_table(("series", "sparkline", "last", "res"),
                                rows, spark_col=1))

    if art.trace is not None and art.trace.records:
        if art.trace.dropped:
            body.append(f'<p class="warn">WARNING: '
                        f"{esc(_truncation_note(art.trace))}</p>")
        if art.trace.sampling:
            s = art.trace.sampling
            body.append(
                f"<p>Tail sampling: {s.get('traces_kept', 0)}/"
                f"{s.get('traces_seen', 0)} traces kept at rate "
                f"{s.get('rate', 0)} ({s.get('spans_kept', 0)} spans); "
                f"{s.get('pins_missed', 0)} exemplar pins missed.</p>")
        body.append("<h2>Span latency (simulated time, top 10)</h2>")
        body.append(_html_table(
            ("span", "count", "mean ms", "p50 ms", "p99 ms"),
            _span_rows(art.trace)))
        hot = _hotspot_rows(art.trace)
        if hot:
            body.append("<h2>Trace hotspots by event label</h2>")
            body.append(_html_table(("label", "count", "wall ms", "share"),
                                    hot))

    if art.profile:
        body.append("<h2>Event-loop profile (host CPU)</h2>")
        body.append(
            f"<p>{art.profile.get('events', 0)} events · "
            f"{art.profile.get('wall_seconds', 0) * 1e3:.1f} ms wall · "
            f"{art.profile.get('events_per_second', 0):,.0f} events/s · "
            f"wall/sim ratio "
            f"{art.profile.get('wall_sim_ratio', 0):.4f}</p>")
        body.append(_html_table(("label", "count", "wall ms", "share"),
                                _profile_rows(art)))

    return ("<!DOCTYPE html><html><head><meta charset='utf-8'>"
            f"<title>{esc(art.title)}</title><style>{_CSS}</style></head>"
            f"<body>{''.join(body)}</body></html>")


# -- machine-readable dashboard ----------------------------------------------


def dashboard_json(art: RunArtifacts, lookback: float = 10.0,
                   ) -> Dict[str, Any]:
    """The dashboard's content as one JSON-able dict (``--json``).

    Mirrors ``trace_report.py --json``: everything CI or a study
    summary needs from a run's dashboard without scraping rendered
    tables. Values come straight from the artifacts, so the output is
    deterministic whenever the artifacts are.
    """
    alerts = []
    for row in _alert_rows(art, lookback):
        entry = {"t": round(row["t"], 9), "slo": row["slo"],
                 "severity": row["severity"],
                 "causes": len(row["causes"])}
        if row["exemplar_trace"] is not None:
            entry["exemplar_trace"] = row["exemplar_trace"]
            entry["exemplar_frames"] = len(_exemplar_frames(art, row))
        if art.control:
            entry["decisions"] = len(row["decisions"])
            entry["convergence_s"] = (
                round(row["convergence_s"], 9)
                if row["convergence_s"] is not None else None)
        alerts.append(entry)
    faults = {}
    for kind, count, first, last in _fault_summary(art):
        faults[kind] = {"count": int(count), "first_t": float(first),
                        "last_t": float(last)}
    series = {}
    for name in sorted(art.tsdb):
        s = art.tsdb[name]
        if not s.points:
            continue
        series[name] = {"kind": s.kind, "points": len(s.points),
                        "resolution": s.resolution,
                        "last": round(s.points[-1][1], 9)}
    out: Dict[str, Any] = {
        "title": art.title,
        "slo_verdicts": list(art.slo_verdicts),
        "alerts": alerts,
        "faults": faults,
        "series": series,
    }
    if art.control:
        decisions = art.control_decisions()
        by_action: Dict[str, int] = {}
        for d in decisions:
            if d["outcome"] == "executed":
                by_action[d["action"]] = by_action.get(d["action"], 0) + 1
        conv = art.control_convergences()
        out["control"] = {
            "decisions": len(decisions),
            "executed": sum(by_action.values()),
            "by_action": by_action,
            "convergences": [
                {"slo": c["slo"], "fired_t": round(c["fired_t"], 9),
                 "convergence_s": round(c["convergence_s"], 9)}
                for c in conv],
        }
    if art.trace is not None:
        out["trace"] = {"records": len(art.trace.records),
                        "dropped": art.trace.dropped}
        if art.trace.dropped_by_kind:
            out["trace"]["dropped_by_kind"] = dict(
                sorted(art.trace.dropped_by_kind.items()))
        if art.trace.sampling:
            s = art.trace.sampling
            out["trace"]["sampling"] = {
                "rate": s.get("rate", 0.0),
                "traces_seen": s.get("traces_seen", 0),
                "traces_kept": s.get("traces_kept", 0),
                "kept_by_reason": dict(sorted(
                    (s.get("kept_by_reason") or {}).items())),
                "pins_missed": s.get("pins_missed", 0),
            }
    if art.profile:
        out["profile"] = {
            "events": art.profile.get("events", 0),
            "wall_seconds": art.profile.get("wall_seconds", 0.0),
            "events_per_second": art.profile.get("events_per_second", 0.0),
            "wall_sim_ratio": art.profile.get("wall_sim_ratio", 0.0),
        }
    return out


# -- study renderer ----------------------------------------------------------


def _study_cell_labels(cells: Sequence[Dict[str, Any]]) -> Dict[str, str]:
    """Short column labels: ``s<seed>`` when seeds are unique, else ids."""
    seeds = [c.get("seed") for c in cells]
    if len(set(seeds)) == len(cells):
        return {c["cell"]: f"s{c['seed']}" for c in cells}
    return {c["cell"]: c["cell"] for c in cells}


def _band_rows(summary: Dict[str, Any]) -> List[List[str]]:
    """One row per aligned series: mean sparkline + band sparkline."""
    rows = []
    for name in sorted(summary.get("series", {})):
        band = summary["series"][name]
        grid = band["grid"]
        mean_points = list(zip(grid, band["mean"]))
        width_points = list(zip(grid, [hi - lo for hi, lo in
                                       zip(band["ci_hi"], band["ci_lo"])]))
        last = len(grid) - 1
        rows.append([
            f"`{name}`",
            sparkline(mean_points),
            sparkline(width_points),
            _fmt(band["mean"][last]),
            f"[{_fmt(band['ci_lo'][last])}, {_fmt(band['ci_hi'][last])}]",
            str(len(band["runs"])),
        ])
    return rows


def _matrix_rows(summary: Dict[str, Any]) -> Tuple[List[str],
                                                   List[List[str]]]:
    """Per-seed verdict matrix: one row per SLO, one column per cell."""
    matrix = summary.get("slo", {}).get("matrix", {})
    cells = [c for c in summary.get("cells", [])
             if c["cell"] in matrix]
    labels = _study_cell_labels(cells)
    slo_names = sorted({slo for row in matrix.values() for slo in row})
    headers = ["SLO"] + [labels[c["cell"]] for c in cells] + ["pass rate"]
    rows: List[List[str]] = []
    for slo in slo_names:
        marks, met = [], 0
        for c in cells:
            verdict = matrix[c["cell"]].get(slo)
            if verdict is None:
                marks.append("—")
            else:
                marks.append("✓" if verdict else "✗")
                met += 1 if verdict else 0
        total = sum(1 for m in marks if m != "—")
        rate = f"{met}/{total}" if total else "—"
        rows.append([f"`{slo}`"] + marks + [rate])
    return headers, rows


def _study_profile_rows(study: StudyArtifacts, top: int = 8,
                        ) -> List[List[str]]:
    labels = study.slowest_profile.get("labels", {})
    total = study.slowest_profile.get("wall_seconds") or 1.0
    ranked = sorted(labels.items(), key=lambda kv: -kv[1]["wall_s"])[:top]
    return [[label, str(stat["count"]), f"{stat['wall_s'] * 1e3:.2f}",
             f"{stat['wall_s'] / total:.1%}"] for label, stat in ranked]


def _alert_correlation_note(alerts: Dict[str, Any]) -> str:
    """The cross-seed alert↔fault sentence both study renderers print."""
    total_firing = sum(a["firing"] for a in alerts.values())
    total_corr = sum(a["correlated"] for a in alerts.values())
    return (f"{total_firing} burn-rate alerts across {len(alerts)} cells, "
            f"{total_corr} correlated to an injected fault.")


def build_study_markdown(study: StudyArtifacts) -> str:
    """The cross-run study dashboard as one markdown document."""
    summary = study.summary
    meta = summary.get("study", {})
    pass_rates = summary.get("slo", {}).get("pass_rates", [])
    out: List[str] = [f"# Study dashboard — {study.title}", ""]
    out.append(
        f"**{meta.get('cells_ok', 0)}/{meta.get('cells_total', 0)} cells "
        f"ok** · scenario `{meta.get('scenario', '?')}` · "
        f"{len(meta.get('seeds', []))} seeds · "
        f"{len(summary.get('series', {}))} banded series · "
        f"{meta.get('confidence', 0.95):.0%} bootstrap CI "
        f"({meta.get('resamples', 0)} resamples)")
    out.append("")

    if pass_rates:
        out += ["## Cross-run SLO pass rates", "",
                _md_table(("SLO", "service", "objective", "runs met",
                           "pass rate", "mean error", "mean budget",
                           "alerts"),
                          [[f"`{r['slo']}`", r["service"],
                            f"{r['objective']:.2%}",
                            f"{r['met']}/{r['runs']}",
                            f"{r['pass_rate']:.0%}",
                            f"{r['mean_error_rate']:.2%}",
                            f"{r['mean_budget_spent']:.0%}",
                            str(r["alerts"])] for r in pass_rates]), ""]

    headers, rows = _matrix_rows(summary)
    if rows:
        out += ["## Per-seed verdict matrix", "",
                _md_table(headers, rows), ""]

    band_rows = _band_rows(summary)
    if band_rows:
        out += ["## Cross-run series bands", "",
                _md_table(("series", "mean", "CI width", "last mean",
                           "last CI", "runs"), band_rows), ""]

    alerts = summary.get("alerts", {})
    if alerts:
        out += ["## Alert↔fault correlation across seeds", "",
                _alert_correlation_note(alerts), ""]

    if study.wall_by_cell:
        slowest = study.slowest_cell
        wall = study.wall_by_cell.get(slowest, 0.0)
        out += ["## Slowest run", "",
                f"`{slowest}` took {wall:.2f}s wall clock "
                f"(cell wall total "
                f"{sum(study.wall_by_cell.values()):.2f}s).", ""]
        profile_rows = _study_profile_rows(study)
        if profile_rows:
            out += [_md_table(("label", "count", "wall ms", "share"),
                              profile_rows), ""]
    return "\n".join(out)


def build_study_html(study: StudyArtifacts) -> str:
    """The cross-run study dashboard as one self-contained HTML page."""
    esc = html_mod.escape
    summary = study.summary
    meta = summary.get("study", {})
    body: List[str] = [f"<h1>Study dashboard — {esc(study.title)}</h1>"]
    body.append(
        f'<p class="summary"><b>{meta.get("cells_ok", 0)}/'
        f'{meta.get("cells_total", 0)} cells ok</b> · scenario '
        f'<code>{esc(str(meta.get("scenario", "?")))}</code> · '
        f'{len(meta.get("seeds", []))} seeds · '
        f'{len(summary.get("series", {}))} banded series · '
        f'{meta.get("confidence", 0.95):.0%} bootstrap CI '
        f'({meta.get("resamples", 0)} resamples)</p>')

    pass_rates = summary.get("slo", {}).get("pass_rates", [])
    if pass_rates:
        body.append("<h2>Cross-run SLO pass rates</h2>")
        body.append(_html_table(
            ("SLO", "service", "objective", "runs met", "pass rate",
             "mean error", "mean budget", "alerts"),
            [[r["slo"], r["service"], f"{r['objective']:.2%}",
              f"{r['met']}/{r['runs']}", f"{r['pass_rate']:.0%}",
              f"{r['mean_error_rate']:.2%}",
              f"{r['mean_budget_spent']:.0%}", str(r["alerts"])]
             for r in pass_rates]))

    headers, rows = _matrix_rows(summary)
    if rows:
        body.append("<h2>Per-seed verdict matrix</h2>")
        body.append(_html_table(
            headers, [[cell.strip("`") for cell in row] for row in rows]))

    if summary.get("series"):
        body.append("<h2>Cross-run series bands</h2>")
        rows = [[cell.strip("`") for cell in row]
                for row in _band_rows(summary)]
        body.append(_html_table(
            ("series", "mean", "CI width", "last mean", "last CI",
             "runs"), rows, spark_col=1))

    alerts = summary.get("alerts", {})
    if alerts:
        body.append("<h2>Alert↔fault correlation across seeds</h2>")
        body.append(f"<p>{_alert_correlation_note(alerts)}</p>")

    if study.wall_by_cell:
        slowest = study.slowest_cell
        wall = study.wall_by_cell.get(slowest, 0.0)
        body.append("<h2>Slowest run</h2>")
        body.append(f"<p><code>{esc(slowest)}</code> took {wall:.2f}s "
                    f"wall clock (cell wall total "
                    f"{sum(study.wall_by_cell.values()):.2f}s)</p>")
        profile_rows = _study_profile_rows(study)
        if profile_rows:
            body.append(_html_table(("label", "count", "wall ms", "share"),
                                    profile_rows))

    return ("<!DOCTYPE html><html><head><meta charset='utf-8'>"
            f"<title>{esc(study.title)}</title><style>{_CSS}</style>"
            f"</head><body>{''.join(body)}</body></html>")
