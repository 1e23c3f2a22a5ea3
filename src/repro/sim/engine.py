"""The discrete-event simulation core.

A :class:`Simulator` owns a clock and an event heap. Components schedule
callbacks with :meth:`Simulator.schedule` (relative delay) or
:meth:`Simulator.at` (absolute time), and the owner drives the run with
:meth:`run`, :meth:`run_until`, or :meth:`step`.

Design notes
------------
- Events with equal timestamps fire in scheduling order (a monotonic
  sequence number breaks ties), which keeps runs deterministic.
- The heap holds plain ``(time, seq, event)`` tuples. Tuple comparison
  resolves on ``time`` then the unique ``seq`` in C, so pushing and
  popping never call back into Python — at fleet scale the heap is the
  hot path and a rich-comparison heap entry dominates the profile.
- Cancellation is O(1): a cancelled event stays in the heap but is
  skipped when popped (a lazy-delete heap). Live-event counts are
  maintained incrementally, so :attr:`pending_events` is O(1) too.
- There is one event loop, :meth:`Simulator._drain`; :meth:`step`,
  :meth:`run` and :meth:`run_until` only choose its stop rule. What
  happens *around* a callback is one slot, chosen when a tracer or
  profiler is attached or detached rather than per event: ``None``
  (the loop calls the callback inline) or one dispatcher. The
  loop re-reads the slot for every event, so a switch made from inside
  a callback applies from the next event on.
- The simulator also owns the :class:`~repro.util.ids.IdFactory` and
  :class:`~repro.util.rng.RngStreams` so that an entire simulation is
  reproducible from a single root seed.
"""

from __future__ import annotations

import heapq
from functools import partial
from math import inf
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.trace import NULL_TRACER, Tracer
from repro.util.ids import IdFactory
from repro.util.rng import RngStreams

# Event lifecycle states. An event is scheduled PENDING, and moves
# exactly once to either CANCELLED (via Event.cancel) or FIRED (when
# its callback runs). The accounting counters are decremented on that
# single transition, never twice.
_PENDING = 0
_CANCELLED = 1
_FIRED = 2


class Event:
    """A scheduled callback. Returned by the scheduling methods so the
    caller can cancel it.

    A *weak* event (``weak=True``) does not keep the simulation alive:
    :meth:`Simulator.run` returns once only weak events remain, the way
    daemon threads do not keep a process alive. Periodic maintenance
    work (cache revalidation, usage uploads) is scheduled weak so that
    ``run()`` still means "run to quiescence".

    Lifecycle: an event fires at most once and is then marked *fired*.
    :meth:`cancel` only takes effect while the event is still pending —
    cancelling an event that already fired (e.g. a timeout whose
    response arrived first, cleaned up afterwards) is a no-op, not a
    double-decrement of the simulator's live-event accounting.

    A cancelled or fired event holds neither ``callback`` nor ``ctx``:
    a cancelled timeout does not keep its exchange's closures alive
    until its deadline, and an owner that keeps its last event (a
    flow's pending round) forms no cycle with it.
    """

    __slots__ = ("time", "callback", "label", "weak", "ctx", "_sim",
                 "_state")

    def __init__(self, time: float, callback: Callable[[], None], label: str,
                 weak: bool = False, sim: "Simulator" = None,
                 ctx: Any = None) -> None:
        self.time = time
        self.callback = callback
        self.label = label
        self.weak = weak
        self.ctx = ctx
        self._sim = sim
        self._state = _PENDING

    @property
    def cancelled(self) -> bool:
        return self._state == _CANCELLED

    @property
    def fired(self) -> bool:
        return self._state == _FIRED

    def cancel(self) -> None:
        """Prevent this event from firing (idempotent).

        A no-op on events that already fired or were already cancelled:
        only a pending event gives up its slot in the live-event
        accounting.
        """
        if self._state == _PENDING:
            self._state = _CANCELLED
            self.callback = self.ctx = None
            sim = self._sim
            if sim is not None:
                sim._pending -= 1
                if not self.weak:
                    sim._strong_pending -= 1
                    assert sim._strong_pending >= 0, (
                        "strong-event accounting went negative on cancel")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("pending", "cancelled", "fired")[self._state]
        return f"<Event {self.label!r} at {self.time:.6f} ({state})>"


class SimulationError(RuntimeError):
    """Raised for scheduling into the past and similar misuse."""


class Simulator:
    """Event heap + clock + per-simulation id/rng state."""

    def __init__(self, seed: int = 0) -> None:
        self.now = 0.0
        self.seed = seed
        self.ids = IdFactory()
        self.rng = RngStreams(seed)
        # (time, seq, event) tuples; seq is unique so comparisons never
        # reach the event object.
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._events_fired = 0
        self._pending = 0
        self._strong_pending = 0
        # Disabled by default: the shared null tracer makes every
        # instrumentation site a cheap no-op. See enable_tracing().
        self.tracer = NULL_TRACER
        # Disabled by default, and free while off: a detached profiler
        # leaves no check in the loop. See enable_profiling().
        self.profiler: Optional["object"] = None
        # What the loop does around each callback: None (call it
        # inline) while neither a tracer nor a profiler is attached.
        # Re-selected by the enable_*/disable_* methods.
        self._dispatch: Optional[Callable[[Event], None]] = None

    # -- scheduling ----------------------------------------------------

    def schedule(self, delay: float, callback: Callable[[], None],
                 label: str = "event", weak: bool = False) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.at(self.now + delay, callback, label, weak=weak)

    def at(self, time: float, callback: Callable[[], None],
           label: str = "event", weak: bool = False) -> Event:
        """Schedule ``callback`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before now={self.now}"
            )
        # Capture the scheduling context so the event inherits the span
        # that caused it; with the null tracer this reads a class
        # attribute that is always None.
        event = Event(time, callback, label, weak=weak, sim=self,
                      ctx=self.tracer.current)
        heapq.heappush(self._heap, (time, self._seq, event))
        self._seq += 1
        self._pending += 1
        if not weak:
            self._strong_pending += 1
        return event

    def call_soon(self, callback: Callable[[], None], label: str = "soon",
                  weak: bool = False) -> Event:
        """Schedule ``callback`` at the current time (after pending
        same-time events). ``weak`` is forwarded so daemon-style work can
        also be deferred without pinning :meth:`run` open."""
        return self.at(self.now, callback, label, weak=weak)

    # -- execution -----------------------------------------------------

    def _select_dispatch(self) -> None:
        """Choose the dispatcher for the instruments now attached."""
        tracer = self.tracer
        if not tracer.enabled:
            dispatch = None
        elif tracer.lite:
            dispatch = self._dispatch_lite
        else:
            dispatch = self._dispatch_full
        if self.profiler is not None:
            dispatch = partial(self._dispatch_profiled, dispatch)
        self._dispatch = dispatch

    def _dispatch_lite(self, event: Event) -> None:
        # No event marks: context propagation is just swapping
        # `current` around the callback. Most fleet events carry no
        # trace context at all, and `current` is always None between
        # events, so those need no store either.
        tracer = self.tracer
        tracer.events_traced += 1
        ctx = event.ctx
        if ctx is None:
            event.callback()
        else:
            tracer.current = ctx
            try:
                event.callback()
            finally:
                tracer.current = None

    def _dispatch_full(self, event: Event) -> None:
        tracer = self.tracer
        tracer.begin_event(event)
        try:
            event.callback()
        finally:
            tracer.end_event(event)

    def _dispatch_profiled(self, traced: Optional[Callable[[Event], None]],
                           event: Event) -> None:
        # The profiler times whatever the tracer does around the
        # callback as well, so its wall covers the traced cost.
        # A collection inside the callback is charged to the
        # collector's own row, not to this event's label.
        profiler = self.profiler
        paused = profiler.collector_seconds
        t0 = perf_counter()
        if traced is None:
            event.callback()
        else:
            traced(event)
        profiler.record(event, perf_counter() - t0,
                        profiler.collector_seconds - paused)

    def _drain(self, until: float, budget: int, strong_only: bool,
               runaway: bool) -> int:
        """The event loop: fire due events in ``(time, seq)`` order.

        An event is due while its time is <= ``until`` and, with
        ``strong_only``, while any strong event is still pending.
        ``budget`` caps the events fired: with another event still due
        once it is spent, the loop raises when ``runaway`` is set and
        returns otherwise. Returns the number of events fired.
        """
        fired = 0
        heap = self._heap
        heappop = heapq.heappop
        while heap and not (strong_only and self._strong_pending <= 0):
            head_time, _seq, event = heap[0]
            if event._state != _PENDING:
                heappop(heap)
                continue
            if head_time > until:
                break
            if fired >= budget:
                if runaway:
                    raise SimulationError(
                        f"exceeded max_events={budget}; likely a "
                        f"scheduling loop")
                break
            heappop(heap)
            self.now = head_time
            event._state = _FIRED
            self._pending -= 1
            if not event.weak:
                self._strong_pending -= 1
                assert self._strong_pending >= 0, (
                    "strong-event accounting went negative on fire")
            dispatch = self._dispatch
            if dispatch is None:
                event.callback()
            else:
                dispatch(event)
            # Done: drop what it ran, so the state its callback closed
            # over dies by reference count (see Event).
            event.callback = event.ctx = None
            self._events_fired += 1
            fired += 1
        return fired

    def step(self) -> bool:
        """Fire the next pending event. Returns False if none remain."""
        return self._drain(inf, 1, strong_only=False,
                           runaway=False) == 1

    def run(self, max_events: int = 10_000_000) -> int:
        """Run until quiescence: no *strong* events remain.

        Weak (daemon) events left in the heap do not fire; they resume
        participating when new strong work is scheduled and run again.
        ``max_events`` is a runaway-loop backstop, not a normal control —
        needing one event more than it allows raises, so a bug cannot
        masquerade as completion.
        """
        return self._drain(inf, max_events, strong_only=True,
                           runaway=True)

    def run_until(self, time: float, max_events: int = 10_000_000) -> int:
        """Run events with timestamps <= ``time``; advances clock to ``time``."""
        if time < self.now:
            raise SimulationError(f"cannot run backwards to {time} from {self.now}")
        fired = self._drain(time, max_events, strong_only=False,
                            runaway=True)
        self.now = max(self.now, time)
        return fired

    # -- introspection ---------------------------------------------------

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events in the heap. O(1): the
        count is maintained on schedule/cancel/fire."""
        return self._pending

    @property
    def events_fired(self) -> int:
        return self._events_fired

    # -- tracing ---------------------------------------------------------

    # profile_events: ignored; the frozen benchmarks/platform passes it
    # (ROADMAP 2(c))
    def enable_tracing(self, capacity: int = 65536,
                       trace_events: bool = True,
                       profile_events: bool = False) -> Tracer:
        """Attach a recording :class:`~repro.obs.trace.Tracer`.

        Spans started via ``sim.tracer`` from here on are recorded into
        a ring buffer of ``capacity`` records; each fired event also
        leaves an instant mark when ``trace_events`` is true. With it
        off the engine runs the lite hook (context propagation only —
        the fleet-scale configuration). The tracer records simulated
        time only; host time per label is :meth:`enable_profiling`.
        Returns the tracer (also available as :attr:`tracer`).
        Idempotent: a second call keeps the existing recording tracer.
        """
        if not self.tracer.enabled:
            self.tracer = Tracer(self, capacity=capacity,
                                 trace_events=trace_events)
        self._select_dispatch()
        return self.tracer

    def disable_tracing(self) -> None:
        """Detach the recording tracer and return to the no-op default."""
        self.tracer = NULL_TRACER
        self._select_dispatch()

    # -- profiling --------------------------------------------------------

    def enable_profiling(self) -> "LoopProfiler":
        """Attach a :class:`~repro.obs.profile.LoopProfiler`.

        Each fired event's callback is wall-clock timed and attributed
        to its label, independently of tracing (the profiler answers
        "where does the *host* burn CPU", the tracer "where does
        *simulated* time go"). Idempotent: a second call keeps the
        existing profiler. Returns the profiler (also available as
        :attr:`profiler`).
        """
        if self.profiler is None:
            from repro.obs.profile import LoopProfiler  # avoid cycle
            self.profiler = LoopProfiler(self, clock=perf_counter)
        self._select_dispatch()
        return self.profiler

    def disable_profiling(self) -> None:
        """Detach the profiler; recorded stats remain readable on it."""
        if self.profiler is not None:
            self.profiler.detach()
        self.profiler = None
        self._select_dispatch()


class Process:
    """Base class for long-lived simulation actors.

    Provides a tidy idiom for components that repeatedly re-schedule
    themselves (servers, crawlers, schedulers). Subclasses implement
    behaviour with :meth:`Simulator.schedule` and may use
    :meth:`every` for periodic work.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self._periodic: Dict[str, Event] = {}
        self._stopped = False

    def every(self, interval: float, callback: Callable[[], None],
              label: Optional[str] = None, jitter_stream: Optional[str] = None) -> None:
        """Run ``callback`` every ``interval`` seconds until :meth:`stop`.

        ``jitter_stream`` optionally names an RNG stream used to add
        +/- 10% uniform jitter, preventing accidental synchronization of
        many periodic actors. The jitter applies to the *first* firing
        too: with thousands of periodic actors created in the same
        construction burst, an unjittered first tick would synchronize
        the whole fleet on one timestamp — exactly the stampede the
        jitter exists to prevent.
        """
        if interval <= 0:
            raise SimulationError(f"interval must be positive, got {interval}")
        key = label or f"{self.name}.periodic"

        def next_delay() -> float:
            if jitter_stream is None:
                return interval
            rng = self.sim.rng.stream(jitter_stream)
            return interval * rng.uniform(0.9, 1.1)

        def fire() -> None:
            if self._stopped:
                return
            callback()
            self._periodic[key] = self.sim.schedule(next_delay(), fire,
                                                    label=key, weak=True)

        # Periodic work is weak (daemon-like): it must not keep run()
        # from reaching quiescence.
        self._periodic[key] = self.sim.schedule(next_delay(), fire, label=key,
                                                weak=True)

    def stop(self) -> None:
        """Cancel periodic work; idempotent."""
        self._stopped = True
        for event in self._periodic.values():
            event.cancel()
        self._periodic.clear()

    @property
    def stopped(self) -> bool:
        return self._stopped
