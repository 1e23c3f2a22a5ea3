"""The unified run dashboard and the cross-run study dashboard.

Merges the artifacts a fully instrumented run exports — the trace
JSONL, the TSDB export, the fault-event log, the SLO alert/verdict
log, and the control plane's remediation decision log (plus an
optional profiler summary) — into one
:class:`~repro.obs.document.Document`, built once by
:func:`run_document` (:func:`study_document` for a study) and rendered
by :mod:`repro.obs.document` as markdown, HTML or text. When the
decision log is present, every alert shows the remediation actions it
triggered and the measured convergence time (fire → resolve).
``scripts/dashboard_report.py`` is the CLI; ``make dashboard`` runs the
chaos scenario under full telemetry and renders the result.

Everything here is read-side: the dashboard never recomputes SLIs or
re-runs anything, it only joins and renders what the run exported, so
a dashboard can be rebuilt from archived artifacts long after the run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.document import (Bullet, Bullets, Document, Section, Table,
                                sparkline)
from repro.obs.profile import PROFILE_HEADING, profile_blocks
from repro.obs.records import ARTIFACTS, read_jsonl
from repro.obs.report import (Trace, exemplar_path, frame_line, load_trace,
                              trace_sections)
from repro.obs.slo import correlate_alerts, load_slo_jsonl
from repro.obs.timeseries import Series, load_jsonl as load_tsdb


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
            art.faults = list(read_jsonl(faults_path))
        if slo_path:
            art.slo_events, art.slo_verdicts = load_slo_jsonl(slo_path)
        if control_path:
            art.control = list(read_jsonl(control_path))
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
            profile_path = cells_root / slowest / ARTIFACTS["profile"]
            if profile_path.is_file():
                profile = json.loads(profile_path.read_text(
                    encoding="utf-8"))
        name = summary.get("study", {}).get("name", root.name)
        return cls(summary=summary, wall_by_cell=wall,
                   slowest_cell=slowest, slowest_profile=profile,
                   title=title or f"study {name}")


# -- the run dashboard -------------------------------------------------------


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e12:
        return str(int(value))
    return f"{value:.4g}"


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
    """Critical-path frames of an alert's exemplar trace.

    The alert → exemplar trace → critical path join: resolves the
    exemplar trace id recorded on the alert against the loaded trace
    export and walks the chain through its slowest span.
    """
    trace_id = row.get("exemplar_trace")
    if trace_id is None or art.trace is None:
        return []
    return [frame_line(record)
            for record in exemplar_path(art.trace, int(trace_id))[:top]]


def _alert_bullets(art: RunArtifacts, lookback: float) -> List[Bullet]:
    """One bullet per alert: causes, remediations, convergence, exemplar."""
    bullets = []
    for row in _alert_rows(art, lookback):
        notes = [f"likely cause: {cause}" for cause in row["causes"]] \
            or ["no fault event within the lookback window"]
        notes += [f"remediation: {decision}" for decision in row["decisions"]]
        if row["convergence_s"] is not None:
            notes.append(f"converged in {row['convergence_s']:.2f}s")
        elif art.control:
            notes.append("not converged by run end")
        children = [Bullet(note) for note in notes]
        if row["exemplar_trace"] is not None:
            children.append(Bullet(
                f"exemplar: trace `{row['exemplar_trace']}`, worst request "
                f"{row['exemplar_value']:.3f}s at t={row['exemplar_t']:.2f}",
                [Bullet(frame) for frame in _exemplar_frames(art, row)]))
        bullets.append(Bullet(
            f"**t={row['t']:.2f}** `{row['slo']}` "
            f"({row['severity']}, burn {row['burn']})", children))
    return bullets


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


def _fault_times(art: RunArtifacts) -> Dict[str, List[float]]:
    """Fault kind -> the times it was logged, kinds in sorted order."""
    by_kind: Dict[str, List[float]] = {}
    for record in art.faults:
        by_kind.setdefault(record.get("event", "?"), []).append(
            float(record["t"]))
    return dict(sorted(by_kind.items()))


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


def run_document(art: RunArtifacts, lookback: float = 10.0) -> Document:
    """The whole run dashboard, built once as a document."""
    firing = [e for e in art.slo_events if e.get("state") == "firing"]
    met = sum(1 for v in art.slo_verdicts if v["met"])
    executed = [d for d in art.control_decisions()
                if d["outcome"] == "executed"]
    doc = Document(title=f"Run dashboard — {art.title}", lead=(
        f"**{met}/{len(art.slo_verdicts)} SLOs met** · "
        f"{len(firing)} burn-rate alerts · "
        f"{len(art.faults)} fault events · "
        f"{len(art.tsdb)} time series"
        + (f" · {len(executed)} remediation actions" if art.control else "")
        + (f" · wall/sim ratio {art.profile.get('wall_sim_ratio', 0):.4f}"
           if art.profile else "")))
    sections = doc.sections

    if art.slo_verdicts:
        sections.append(Section("SLO verdicts", [Table(
            ("SLO", "service", "objective", "error rate", "budget spent",
             "verdict", "alerts"),
            [[v["slo"], v["service"], f"{v['objective']:.2%}",
              f"{v['error_rate']:.2%}", f"{v['budget_spent']:.0%}",
              "MET" if v["met"] else "VIOLATED", str(v["alerts"])]
             for v in art.slo_verdicts])]))

    alerts = _alert_bullets(art, lookback)
    sections.append(Section("Burn-rate alerts and correlated faults", [
        Bullets(alerts) if alerts else "(no alerts fired)"]))

    if art.control:
        blocks = [Table(("action", "outcome", "count", "targets"),
                        _control_summary(art))]
        conv = art.control_convergences()
        if conv:
            mean_s = sum(c["convergence_s"] for c in conv) / len(conv)
            blocks.append(f"{len(conv)} alerts converged, mean "
                          f"{mean_s:.2f}s fire→resolve.")
        sections.append(Section("Remediation decisions", blocks))

    if art.faults:
        sections.append(Section("Fault timeline", [Table(
            ("fault event", "count", "first t", "last t"),
            [[kind, str(len(times)), f"{min(times):.2f}",
              f"{max(times):.2f}"]
             for kind, times in _fault_times(art).items()])]))

    key = _key_series(art)
    if key:
        sections.append(Section("Key time series", [Table(
            ("series", "sparkline", "last", "res"),
            [[f"`{name}`", sparkline(series.points),
              _fmt(series.points[-1][1]), str(series.resolution)]
             for name, series in key])]))

    if art.trace is not None and art.trace.records:
        sections += trace_sections(art.trace)

    if art.profile:
        sections.append(Section(PROFILE_HEADING,
                                profile_blocks(art.profile)))
    return doc


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
    faults = {kind: {"count": len(times), "first_t": round(min(times), 9),
                     "last_t": round(max(times), 9)}
              for kind, times in _fault_times(art).items()}
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


# -- the study dashboard -----------------------------------------------------


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


def study_document(study: StudyArtifacts) -> Document:
    """The whole cross-run study dashboard, built once as a document."""
    summary = study.summary
    meta = summary.get("study", {})
    doc = Document(title=f"Study dashboard — {study.title}", lead=(
        f"**{meta.get('cells_ok', 0)}/{meta.get('cells_total', 0)} cells "
        f"ok** · scenario `{meta.get('scenario', '?')}` · "
        f"{len(meta.get('seeds', []))} seeds · "
        f"{len(summary.get('series', {}))} banded series · "
        f"{meta.get('confidence', 0.95):.0%} bootstrap CI "
        f"({meta.get('resamples', 0)} resamples)"))
    sections = doc.sections

    pass_rates = summary.get("slo", {}).get("pass_rates", [])
    if pass_rates:
        sections.append(Section("Cross-run SLO pass rates", [Table(
            ("SLO", "service", "objective", "runs met", "pass rate",
             "mean error", "mean budget", "alerts"),
            [[f"`{r['slo']}`", r["service"], f"{r['objective']:.2%}",
              f"{r['met']}/{r['runs']}", f"{r['pass_rate']:.0%}",
              f"{r['mean_error_rate']:.2%}",
              f"{r['mean_budget_spent']:.0%}", str(r["alerts"])]
             for r in pass_rates])]))

    headers, rows = _matrix_rows(summary)
    if rows:
        sections.append(Section("Per-seed verdict matrix",
                                [Table(headers, rows)]))

    band_rows = _band_rows(summary)
    if band_rows:
        sections.append(Section("Cross-run series bands", [Table(
            ("series", "mean", "CI width", "last mean", "last CI", "runs"),
            band_rows)]))

    alerts = summary.get("alerts", {})
    if alerts:
        total_firing = sum(a["firing"] for a in alerts.values())
        total_corr = sum(a["correlated"] for a in alerts.values())
        sections.append(Section("Alert↔fault correlation across seeds", [
            f"{total_firing} burn-rate alerts across {len(alerts)} cells, "
            f"{total_corr} correlated to an injected fault."]))

    if study.wall_by_cell:
        slowest = study.slowest_cell
        blocks = [f"`{slowest}` took "
                  f"{study.wall_by_cell.get(slowest, 0.0):.2f}s wall clock "
                  f"(cell wall total "
                  f"{sum(study.wall_by_cell.values()):.2f}s)."]
        if study.slowest_profile:
            blocks += profile_blocks(study.slowest_profile)
        sections.append(Section("Slowest run", blocks))
    return doc
