"""Regression tests for event-loop accounting bugs.

Three bugs shipped together and are pinned here:

1. ``Event.cancel()`` on an already-fired event double-decremented
   ``_strong_pending`` (fire decremented once, the late cancel again),
   driving the counter negative and making ``run()`` stop before
   quiescence.
2. ``Process.every`` scheduled the *first* tick with no jitter even
   when a jitter stream was configured, synchronizing every periodic
   actor's first firing.
3. ``call_soon`` silently dropped ``weak``, scheduling strong-only.
"""

from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Process, Simulator


class TestCancelAfterFire:
    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.run()
        assert event.fired
        assert not event.cancelled
        event.cancel()  # must not corrupt accounting
        assert event.fired
        assert not event.cancelled
        assert sim._strong_pending == 0

    def test_late_cancel_does_not_end_run_early(self):
        """The timeout idiom: a response arrives, and cleanup cancels
        the (already fired or now-moot) timeout afterwards. Before the
        fix the double decrement made run() return before later strong
        events fired."""
        sim = Simulator()
        fired = []
        timeout = sim.schedule(1.0, lambda: fired.append("timeout"))
        sim.schedule(2.0, timeout.cancel, label="late-cancel")
        sim.schedule(3.0, lambda: fired.append("must-still-fire"))
        sim.run()
        assert fired == ["timeout", "must-still-fire"]
        assert sim.now == 3.0

    def test_many_late_cancels_keep_counter_sane(self):
        sim = Simulator()
        events = [sim.schedule(0.1 * (i + 1), lambda: None)
                  for i in range(10)]

        def cancel_all():
            for event in events:
                event.cancel()

        sim.schedule(5.0, cancel_all)
        sentinel = []
        sim.schedule(9.0, lambda: sentinel.append(True))
        sim.run()
        assert sentinel == [True]
        assert sim._strong_pending == 0

    def test_cancel_then_fire_time_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("x"))
        event.cancel()
        event.cancel()  # idempotent on cancelled too
        sim.schedule(2.0, lambda: fired.append("y"))
        sim.run()
        assert fired == ["y"]
        assert event.cancelled and not event.fired


class TestFirstTickJitter:
    def test_first_tick_is_jittered(self):
        """Many periodic actors sharing an interval must not all take
        their first tick on the same timestamp."""
        sim = Simulator(seed=5)
        first_ticks = {}
        for i in range(50):
            proc = Process(sim, f"actor{i}")
            proc.every(10.0, lambda i=i: first_ticks.setdefault(i, sim.now),
                       jitter_stream="stampede")
        sim.schedule(12.0, lambda: None)  # strong work past the first round
        sim.run()
        times = sorted(set(first_ticks.values()))
        assert len(first_ticks) == 50
        # Pre-fix every first tick landed exactly at t=10.0.
        assert len(times) > 40
        assert all(9.0 <= t <= 11.0 for t in times)

    def test_unjittered_first_tick_is_exact(self):
        sim = Simulator()
        ticks = []
        Process(sim, "plain").every(10.0, lambda: ticks.append(sim.now))
        sim.schedule(11.0, lambda: None)
        sim.run()
        assert ticks == [10.0]


class TestCallSoonWeak:
    def test_call_soon_weak_does_not_pin_run(self):
        sim = Simulator()
        fired = []

        def finish():
            # Deferred daemon work: must not extend quiescence.
            sim.call_soon(lambda: fired.append("weak"), weak=True)

        sim.schedule(1.0, finish)
        sim.run()
        assert fired == []  # weak backlog left unfired at quiescence

    def test_call_soon_default_is_strong(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: sim.call_soon(lambda: fired.append("s")))
        sim.run()
        assert fired == ["s"]


LITE = {"trace_events": False}
# mode -> (enable_tracing keywords or None, profiler attached)
MODES = {
    "plain": (None, False),
    "lite": (LITE, False),
    "full": ({}, False),
    "profiler": (None, True),
    "lite+profiler": (LITE, True),
    "full+profiler": ({}, True),
}


class Boom(Exception):
    """Raised by the one misbehaving callback of a case."""


def _play(ops, raiser, mode, driver, chunks, stepwise):
    """Apply ``ops`` to a fresh simulator under ``mode``, then empty it
    the way ``driver`` does. ``stepwise`` spells the driver's stop rule
    with ``step()`` and the test's own view of which events are live:
    the reference the real driver is compared against."""
    sim = Simulator()
    tracing, profiling = MODES[mode]
    calls = {"begin_event": 0, "end_event": 0}
    if tracing is not None:
        tracer = sim.enable_tracing(**tracing)
        for name in calls:
            def counted(event, name=name, orig=getattr(tracer, name)):
                calls[name] += 1
                orig(event)
            setattr(tracer, name, counted)
    if profiling:
        sim.enable_profiling()
    events = []
    order = []

    def live():
        return [e for e in events if not e.cancelled and not e.fired]

    def live_strong_count():
        return sum(1 for e in live() if not e.weak)

    def add(delay, weak, kind):
        index = len(events)

        def fire():
            order.append(index)
            if kind == "spawn":
                add(delay / 2, weak, "plain")
            elif kind == "cancel":
                events[int(delay * len(events)) % len(events)].cancel()
            if index == raiser:
                raise Boom

        # Every other event, and the raiser, is scheduled inside a span,
        # so both arms of the lite dispatcher (with and without a
        # context) run and the raise hits the one with state to reset.
        in_span = index % 2 or index == raiser
        with sim.tracer.trace("op") if in_span else nullcontext():
            events.append(sim.schedule(delay, fire, weak=weak))

    def attempt(call):
        # A raising callback aborts the driver; Boom (truthy) says so.
        try:
            return call()
        except Boom:
            return Boom
        finally:
            assert sim.tracer.current is None

    def step():
        return attempt(sim.step)

    for action, delay, weak in ops:
        if action == "schedule":
            add(delay, weak, ("plain", "spawn", "cancel")[len(events) % 3])
        elif action == "cancel" and events:
            # Deterministic pick: bounce across the list via the delay.
            events[int(delay * len(events)) % len(events)].cancel()
        elif action == "run_next":
            step()
        assert sim._strong_pending == live_strong_count()
        assert sim._strong_pending >= 0

    if driver == "step":
        while step():
            pass
    elif driver == "run":
        if stepwise:
            while live_strong_count():
                step()
        else:
            while attempt(sim.run) is Boom:
                pass  # what the raise left behind is still due
    else:
        for dt in chunks:
            until = sim.now + dt
            if stepwise:
                while any(e.time <= until for e in live()):
                    step()
                sim.now = until
            else:
                while attempt(lambda: sim.run_until(until)) is Boom:
                    pass
    assert sim._strong_pending == live_strong_count()
    assert sim.pending_events == len(live())
    if driver != "run_until":
        assert sim._strong_pending == 0

    if tracing is not None:
        assert sim.tracer.events_traced == len(order)
        expected = 0 if tracing is LITE else len(order)
        assert calls == {"begin_event": expected, "end_event": expected}
    if profiling:
        assert sim.profiler.events == sim.events_fired
    return (order, sim.now, sim.events_fired, sim.pending_events,
            sim._strong_pending)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["schedule", "cancel", "run_next"]),
                          st.floats(min_value=0.0, max_value=10.0,
                                    allow_nan=False),
                          st.booleans()),
                max_size=60),
       st.integers(min_value=0, max_value=5),
       st.sampled_from(["step", "run", "run_until"]),
       st.lists(st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
                max_size=6))
def test_property_strong_pending_matches_live_strong_events(
        ops, raiser, driver, chunks):
    """``_strong_pending`` must always equal the number of scheduled,
    uncancelled, unfired strong events — under any interleaving of
    scheduling, cancellation (including repeats and post-fire cancels),
    and event delivery, with callbacks that schedule children, cancel
    siblings and (the ``raiser``-th) raise.

    And the engine has one loop: every instrument mode under every
    driver must fire the same events in the same order, and end with
    the same clock and counters, as the bare simulator under ``step()``.
    Every mode runs on every case (rather than one drawn mode), so a
    case whose raiser fires checks all six dispatch paths.
    """
    reference = _play(ops, raiser, "plain", driver, chunks, stepwise=True)
    for mode in MODES:
        assert _play(ops, raiser, mode, driver, chunks,
                     stepwise=False) == reference, mode
