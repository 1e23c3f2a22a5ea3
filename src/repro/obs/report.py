"""Trace analysis: latency tables, critical paths, hotspots.

Consumes the JSONL produced by :meth:`repro.obs.trace.Tracer.
export_jsonl` and answers the questions the HPoP services are argued
in terms of: where did a request's simulated time go, what is the p99
of each operation, and which event labels fire most. Everything here
is a pure function of the trace, hence of the seed; which labels burn
the *host's* clock is :mod:`repro.obs.profile`'s question.
``scripts/trace_report.py`` is the thin CLI over this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.document import Block, Bullet, Bullets, Section, Table, Warn
from repro.obs.trace import iter_jsonl
from repro.util.stats import mean, percentile


@dataclass
class TraceRecord:
    """One span or event mark loaded from a trace file."""

    kind: str
    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: float
    attrs: Dict[str, Any] = field(default_factory=dict)
    # Root span id of the causal tree this record belongs to; None on
    # classic exports (trace ids are only written when sampling is on).
    trace_id: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Trace:
    """A fully loaded trace: records plus what the export says it lost."""

    records: List[TraceRecord] = field(default_factory=list)
    # Spans lost to ring-buffer wrap before export (0 = complete trace).
    dropped: int = 0
    # Per-kind / per-name breakdown of what the ring evicted (empty on
    # pre-breakdown exports).
    dropped_by_kind: Dict[str, int] = field(default_factory=dict)
    dropped_by_name: Dict[str, int] = field(default_factory=dict)
    # The trailing tail-sampling stats record, when the export came
    # from a sampled tracer (empty otherwise).
    sampling: Dict[str, Any] = field(default_factory=dict)

    def spans(self) -> List[TraceRecord]:
        return [r for r in self.records if r.kind == "span"]

    def events(self) -> List[TraceRecord]:
        return [r for r in self.records if r.kind == "event"]

    def by_id(self) -> Dict[int, TraceRecord]:
        return {r.span_id: r for r in self.records}


def load_trace(path: str) -> Trace:
    """Parse a JSONL trace file into a :class:`Trace`."""
    trace = Trace()
    for raw in iter_jsonl(path):
        kind = raw.get("kind")
        if kind == "dropped":
            trace.dropped = int(raw.get("spans_dropped", 0))
            trace.dropped_by_kind = dict(raw.get("by_kind") or {})
            trace.dropped_by_name = dict(raw.get("by_name") or {})
        elif kind == "sampling":
            trace.sampling = raw
        elif kind in ("span", "event"):
            end = raw.get("end")
            if end is None:
                continue  # unfinished span leaked into the file; skip
            trace_id = raw.get("trace")
            trace.records.append(TraceRecord(
                kind=kind, span_id=int(raw["id"]),
                parent_id=raw.get("parent"), name=raw.get("name", ""),
                start=float(raw["start"]), end=float(end),
                attrs=raw.get("attrs") or {},
                trace_id=int(trace_id) if trace_id is not None else None))
    return trace


# -- per-span-name latency table ------------------------------------------


def span_table(trace: Trace) -> List[Tuple[str, int, float, float, float]]:
    """(name, count, mean, p50, p99) per span name, busiest total first."""
    groups: Dict[str, List[float]] = {}
    for record in trace.spans():
        groups.setdefault(record.name, []).append(record.duration)
    rows = []
    for name, durations in groups.items():
        rows.append((name, len(durations), mean(durations),
                     percentile(durations, 50), percentile(durations, 99)))
    rows.sort(key=lambda row: -(row[1] * row[2]))  # total simulated time
    return rows


# -- critical path ---------------------------------------------------------


def slowest_span(trace: Trace) -> Optional[TraceRecord]:
    """The longest-duration proper span (event marks are instants)."""
    spans = trace.spans()
    if not spans:
        return None
    return max(spans, key=lambda r: (r.duration, -r.span_id))


def critical_path(trace: Trace,
                  target: Optional[TraceRecord] = None) -> List[TraceRecord]:
    """Root-to-leaf chain through the slowest span.

    Walks up from ``target`` (default: the slowest span) to its root,
    then descends by always taking the child that *finishes last* —
    the sub-operation that kept the request open. The returned list is
    ordered root first.
    """
    if target is None:
        target = slowest_span(trace)
    if target is None:
        return []
    by_id = trace.by_id()
    children: Dict[Optional[int], List[TraceRecord]] = {}
    for record in trace.records:
        children.setdefault(record.parent_id, []).append(record)

    # Ancestors of the target, root first.
    up: List[TraceRecord] = []
    node: Optional[TraceRecord] = target
    seen = set()
    while node is not None and node.span_id not in seen:
        seen.add(node.span_id)
        up.append(node)
        node = by_id.get(node.parent_id) if node.parent_id is not None else None
    up.reverse()

    # Descend from the target along the latest-finishing child.
    path = up
    node = target
    while True:
        kids = [k for k in children.get(node.span_id, ())
                if k.span_id not in seen]
        if not kids:
            break
        node = max(kids, key=lambda r: (r.end, r.span_id))
        seen.add(node.span_id)
        path.append(node)
    return path


def records_for_trace(trace: Trace, trace_id: int) -> List[TraceRecord]:
    """Every record belonging to one sampled trace (by root span id)."""
    return [r for r in trace.records if r.trace_id == trace_id]


def exemplar_path(trace: Trace, trace_id: int) -> List[TraceRecord]:
    """Critical path through one sampled trace, root first.

    The alert → exemplar → critical path join: given the exemplar
    trace id an SLO alert recorded, restrict the export to that trace
    and walk the chain through its slowest span. Empty when the trace
    id is absent (e.g. a classic export without trace ids).
    """
    sub = Trace(records=records_for_trace(trace, trace_id))
    target = slowest_span(sub)
    if target is None:
        return []
    return critical_path(sub, target)


# -- hotspots --------------------------------------------------------------


def hotspots(trace: Trace, top: int = 10) -> List[Tuple[str, int, float]]:
    """(label, count, share of all event marks) for the busiest labels."""
    counts: Dict[str, int] = {}
    for record in trace.events():
        counts[record.name] = counts.get(record.name, 0) + 1
    total_count = sum(counts.values()) or 1
    rows = [(label, count, count / total_count)
            for label, count in counts.items()]
    rows.sort(key=lambda row: (-row[1], row[0]))
    return rows[:top]


# -- the report as document sections ---------------------------------------


def _fmt_s(value: float) -> str:
    return f"{value * 1e3:.3f} ms" if value < 1.0 else f"{value:.5f} s"


def frame_line(record: TraceRecord) -> str:
    """One critical-path frame: when, how long, what, with its attrs."""
    attrs = "".join(f" {k}={v}" for k, v in sorted(record.attrs.items()))
    return (f"`t={record.start:.6f} +{record.duration * 1e3:.3f} ms "
            f"[{record.kind}] {record.name}{attrs}`")


def _counts(counts: Iterable[Tuple[str, Any]]) -> str:
    return ", ".join(f"{key}={count}" for key, count in counts)


def trace_sections(trace: Trace, top: int = 10) -> List[Section]:
    """The whole trace report as document sections.

    ``trace_report.py`` prints :func:`~repro.obs.document.to_text` of
    these and the run dashboard embeds them, so the two cannot
    disagree. A truncated trace leads with its warning.
    """
    sections: List[Section] = []

    if trace.dropped:
        blocks: List[Block] = [Warn(
            f"{trace.dropped} spans dropped by the ring buffer before "
            f"export; this trace is truncated (raise the tracer capacity "
            f"or enable tail sampling to capture everything)")]
        if trace.dropped_by_kind:
            blocks.append("evicted by kind: "
                          + _counts(sorted(trace.dropped_by_kind.items())))
        if trace.dropped_by_name:
            blocks.append("evicted by name: " + _counts(sorted(
                trace.dropped_by_name.items(),
                key=lambda kv: (-kv[1], kv[0]))[:top]))
        sections.append(Section("", blocks))

    rows = span_table(trace)
    sections.append(Section("Span latency (simulated time)", [Table(
        ("span", "count", "mean", "p50", "p99"),
        [(name, str(count), _fmt_s(avg), _fmt_s(p50), _fmt_s(p99))
         for name, count, avg, p50, p99 in rows])
        if rows else "(no spans recorded)"]))

    target = slowest_span(trace)
    if target is not None:
        sections.append(Section(
            f"Critical path of slowest span: {target.name} "
            f"({_fmt_s(target.duration)})",
            [Bullets([Bullet(frame_line(record) + (
                " ← slowest" if record.span_id == target.span_id else ""))
                for record in critical_path(trace, target)])]))

    hot = hotspots(trace, top=top)
    sections.append(Section("Trace hotspots by event label", [Table(
        ("label", "count", "share"),
        [(label, str(count), f"{share:.1%}") for label, count, share in hot])
        if hot else "(no events recorded)"]))

    if trace.sampling:
        s = trace.sampling
        reasons = _counts(sorted((s.get("kept_by_reason") or {}).items()))
        blocks = [
            f"{s.get('traces_kept', 0)}/{s.get('traces_seen', 0)} traces "
            f"kept at rate {s.get('rate', 0)} "
            f"({s.get('spans_kept', 0)} spans kept, "
            f"{s.get('spans_discarded', 0)} discarded)"
            + (f"; kept by reason: {reasons}" if reasons else "")]
        if s.get("pins_missed") or s.get("late_after_grace"):
            blocks.append(Warn(
                f"{s.get('pins_missed', 0)} exemplar pins missed, "
                f"{s.get('late_after_grace', 0)} flagged spans arrived "
                f"after the limbo grace window — raise the sampler's "
                f"grace so kept traces cannot be lost"))
        sections.append(Section("Tail sampling", blocks))
    return sections


def report_json(trace: Trace, top: int = 10) -> Dict[str, Any]:
    """The machine-readable twin of :func:`trace_sections`.

    Consumed by CI and the run dashboard (``trace_report.py --json``),
    so the schema is part of the tooling contract: ``span_table`` rows
    mirror the text table, ``critical_path`` is root-first, and
    ``dropped`` is always present so truncation is machine-visible.
    ``hotspots`` rows are event counts and their share (no ``wall_s``)
    and there is no top-level ``meta`` key: host time is not a fact of
    the trace.
    """
    target = slowest_span(trace)
    return {
        "spans": len(trace.spans()),
        "events": len(trace.events()),
        "dropped": trace.dropped,
        "dropped_by_kind": dict(sorted(trace.dropped_by_kind.items())),
        "dropped_by_name": dict(sorted(trace.dropped_by_name.items())),
        "sampling": trace.sampling,
        "span_table": [
            {"name": name, "count": count, "mean_s": avg, "p50_s": p50,
             "p99_s": p99}
            for name, count, avg, p50, p99 in span_table(trace)],
        "critical_path": [
            {"kind": r.kind, "name": r.name, "start": r.start,
             "duration_s": r.duration, "attrs": r.attrs}
            for r in (critical_path(trace, target) if target else [])],
        "hotspots": [
            {"label": label, "count": count, "share": share}
            for label, count, share in hotspots(trace, top=top)],
    }
