"""Causal tracing keyed to simulated time.

A :class:`Tracer` records *spans* — named intervals of simulated time
with attributes and a parent — into a bounded ring buffer, and exports
them as JSONL for :mod:`repro.obs.report` / ``scripts/trace_report.py``.

Design notes
------------
- **Off by default, near-zero overhead.** Every :class:`~repro.sim.engine.
  Simulator` starts with the shared :data:`NULL_TRACER`; instrumentation
  sites call ``sim.tracer.start_span(...)`` unconditionally and get back
  the inert :data:`NULL_SPAN`, so the disabled path is one attribute
  load and a no-op method call — no branching at call sites.
- **Causality through the event heap.** ``Simulator.at`` captures
  ``tracer.current`` into the event; when the event fires the engine
  makes that context current again (and, when event marks are enabled,
  records a ``kind="event"`` instant span as the child). A span started
  in one callback and finished in another therefore still nests under
  the request that caused it.
- **Determinism.** Span ids come from a monotonic counter and all
  recorded fields are simulated-time values, so two traced runs from the
  same seed export byte-identical JSONL. The tracer reads no host
  clock: per-label *host* time is :class:`repro.obs.profile.
  LoopProfiler`'s job (``Simulator.enable_profiling`` → ``profile.json``).
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from typing import Any, Dict, List, Optional

from repro.obs.records import write_jsonl

_UNSET = object()


class Span:
    """One named interval of simulated time in a trace."""

    __slots__ = ("span_id", "parent_id", "trace_id", "name", "start", "end",
                 "attrs", "kind", "_tracer")

    def __init__(self, tracer: "Tracer", span_id: int,
                 parent_id: Optional[int], name: str, start: float,
                 attrs: Dict[str, Any], kind: str = "span",
                 trace_id: Optional[int] = None) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        # The root span's id, inherited down the tree: every span in
        # one request's causal tree shares it. Tail sampling groups and
        # decides whole traces by this id.
        self.trace_id = span_id if trace_id is None else trace_id
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attrs = attrs
        self.kind = kind
        self._tracer = tracer

    @property
    def duration(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

    def set(self, **attrs: Any) -> None:
        """Attach attributes to an open span."""
        self.attrs.update(attrs)

    def finish(self, **attrs: Any) -> None:
        """Close the span at the current simulated time and record it.

        Idempotent: only the first call records. Spans that are never
        finished are never exported.
        """
        if self.end is not None:
            return
        self.attrs.update(attrs)
        self.end = self._tracer.now
        self._tracer._record(self)

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "kind": self.kind,
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }
        # Only exported when trace ids matter (tail sampling on), so
        # classic exports stay byte-identical to their pre-sampling form.
        if self._tracer.export_trace_ids:
            out["trace"] = self.trace_id
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Span #{self.span_id} {self.name!r} "
                f"[{self.start:.6f}, {self.end}]>")


class _NullSpan:
    """The inert span returned by the disabled tracer."""

    __slots__ = ()
    span_id = None
    parent_id = None
    trace_id = None
    name = ""
    kind = "span"
    start = 0.0
    end = 0.0
    duration = 0.0
    attrs: Dict[str, Any] = {}

    def set(self, **attrs: Any) -> None:
        pass

    def finish(self, **attrs: Any) -> None:
        pass


NULL_SPAN = _NullSpan()


class _NullContext:
    """Reusable no-op context manager yielding :data:`NULL_SPAN`."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_CTX = _NullContext()


class NullTracer:
    """Disabled tracer: every operation is an allocation-free no-op."""

    enabled = False
    export_trace_ids = False
    current: Optional[Span] = None

    def trace(self, name: str, **attrs: Any) -> _NullContext:
        return _NULL_CTX

    def start_span(self, name: str, parent: Any = None,
                   **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def activate(self, span: Any) -> _NullContext:
        return _NULL_CTX

    def spans(self) -> List[Span]:
        return []


NULL_TRACER = NullTracer()


class _SpanContext:
    """Makes a span current for a ``with`` scope, so events scheduled
    inside inherit it. ``tracer.trace(...)`` finishes its new span on
    exit; ``tracer.activate(span)`` leaves an open span open."""

    __slots__ = ("_tracer", "_span", "_finish", "_prev")

    def __init__(self, tracer: "Tracer", span: Span, finish: bool) -> None:
        self._tracer = tracer
        self._span = span
        self._finish = finish
        self._prev: Optional[Span] = None

    def __enter__(self) -> Span:
        self._prev = self._tracer.current
        self._tracer.current = self._span
        return self._span

    def __exit__(self, *exc: Any) -> bool:
        self._tracer.current = self._prev
        if self._finish:
            self._span.finish()
        return False


class Tracer:
    """Span recorder bound to one simulator clock.

    ``clock`` is any object with a ``now`` attribute in simulated
    seconds (a :class:`~repro.sim.engine.Simulator`). ``capacity``
    bounds the ring buffer; the oldest records are evicted and counted
    in :attr:`dropped`. ``trace_events`` controls whether each fired
    engine event is recorded as an instant ``kind="event"`` mark (the
    glue that lets :mod:`repro.obs.report` reconstruct critical paths
    across the heap).
    """

    enabled = True

    def __init__(self, clock: Any, capacity: int = 65536,
                 trace_events: bool = True) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._clock = clock
        self.capacity = capacity
        # Without per-event marks the engine skips begin_event/
        # end_event entirely and just swaps ``current`` around each
        # callback — the fleet-bench "lite" hook, a couple of
        # attribute stores per event.
        self.lite = not trace_events
        self._records: deque = deque(maxlen=capacity)
        self._next_id = 1
        self.current: Optional[Span] = None
        # Spans evicted by ring-buffer wrap. Surfaced in every export
        # (a "dropped" record) and by trace_report, so a truncated
        # trace can never masquerade as a complete one. The per-kind /
        # per-name breakdowns say *what* was evicted.
        self.spans_dropped = 0
        self.dropped_by_kind: Dict[str, int] = {}
        self.dropped_by_name: Dict[str, int] = {}
        # Tail-based sampling: when set, finished spans route through
        # the sampler (whole-trace keep/drop decisions) instead of the
        # ring buffer. See repro.obs.sampling.TailSampler.
        self.sampler: Optional[Any] = None
        # Whether span exports carry their trace id. Off by default so
        # classic exports keep their exact bytes; flipped on by
        # enable_tail_sampling() (and settable directly for exemplars
        # without sampling).
        self.export_trace_ids = False
        self.events_traced = 0

    # -- span API ---------------------------------------------------------

    @property
    def now(self) -> float:
        return self._clock.now

    def start_span(self, name: str, parent: Any = _UNSET,
                   **attrs: Any) -> Span:
        """Open a span at the current simulated time.

        The caller finishes it later with :meth:`Span.finish` —
        possibly several events downstream. ``parent`` defaults to the
        current context; pass ``None`` to force a root span.
        """
        if parent is _UNSET:
            parent = self.current
        if isinstance(parent, Span):
            parent_id = parent.span_id
            trace_id = parent.trace_id
        else:
            parent_id = parent
            trace_id = None
        span = Span(self, self._next_id, parent_id, name, self._clock.now,
                    attrs, trace_id=trace_id)
        self._next_id += 1
        if self.sampler is not None:
            self.sampler.span_opened(span)
        return span

    def trace(self, name: str, **attrs: Any) -> _SpanContext:
        """Context manager: span over a synchronous scope, auto-finished.

        Events scheduled inside the ``with`` block inherit the span as
        their parent context.
        """
        return _SpanContext(self, self.start_span(name, **attrs), finish=True)

    def activate(self, span: Span) -> _SpanContext:
        """Make an *open* span current for a scope without finishing it."""
        return _SpanContext(self, span, finish=False)

    # -- engine integration ------------------------------------------------

    def begin_event(self, event: Any) -> None:
        """Called by the engine just before an event's callback runs.

        Full dispatch only (lite never gets here): records the event's
        instant mark and makes it the current context.
        """
        ctx = event.ctx
        now = self._clock.now
        mark = Span(self, self._next_id,
                    ctx.span_id if ctx is not None else None,
                    event.label, now, {}, kind="event",
                    trace_id=ctx.trace_id if ctx is not None else None)
        self._next_id += 1
        mark.end = now
        self._record(mark)
        self.current = mark

    def end_event(self, event: Any) -> None:
        """Called by the engine after the callback returns (or raises)."""
        self.current = None
        self.events_traced += 1

    # -- storage / export ----------------------------------------------------

    @property
    def dropped(self) -> int:
        """Back-compat alias for :attr:`spans_dropped`."""
        return self.spans_dropped

    def _record(self, span: Span) -> None:
        if self.sampler is not None:
            self.sampler.span_finished(span)
            return
        if len(self._records) == self.capacity:
            evicted = self._records[0]
            self.spans_dropped += 1
            kinds = self.dropped_by_kind
            kinds[evicted.kind] = kinds.get(evicted.kind, 0) + 1
            names = self.dropped_by_name
            names[evicted.name] = names.get(evicted.name, 0) + 1
        self._records.append(span)

    def spans(self) -> List[Span]:
        """Recorded (finished) spans and event marks, oldest first.

        With a sampler attached, these are the spans of *kept* traces in
        record order (the sampler's store), not the ring buffer.
        """
        if self.sampler is not None:
            return self.sampler.kept_spans()
        return list(self._records)

    def enable_tail_sampling(self, **kwargs: Any) -> "Any":
        """Attach a :class:`repro.obs.sampling.TailSampler` and return it.

        Keyword arguments go to :class:`~repro.obs.sampling.
        SamplingPolicy`. Turns on trace-id export (sampled files are a
        different artifact from classic exports, so the extra key does
        not violate the classic byte-identity contract).
        """
        from .sampling import SamplingPolicy, TailSampler
        policy = kwargs.pop("policy", None)
        if policy is None:
            policy = SamplingPolicy(**kwargs)
        self.sampler = TailSampler(self, policy)
        self.export_trace_ids = True
        return self.sampler

    def export_jsonl(self, path: str) -> int:
        """Write the trace as JSON Lines; returns the record count.

        Every record (``span``, ``event``, ``dropped``, ``sampling``)
        holds simulated-time values and sim-side counts only, so two
        runs from the same seed produce byte-identical files.
        """
        if self.sampler is not None:
            # Decide every in-flight trace so nothing is silently
            # pending at export time (flush is deterministic).
            self.sampler.flush()
        tail = []
        if self.spans_dropped:
            # Deterministic (sim-side count), so it is safe in the
            # byte-identity contract of the default export. The
            # by_kind/by_name breakdowns are sim-side too.
            tail.append(
                {"kind": "dropped", "capacity": self.capacity,
                 "spans_dropped": self.spans_dropped,
                 "by_kind": dict(sorted(self.dropped_by_kind.items())),
                 "by_name": dict(sorted(self.dropped_by_name.items()))})
        if self.sampler is not None:
            tail.append(self.sampler.stats_record())
        return write_jsonl(path, chain(
            (span.to_dict() for span in self.spans()), tail))
