"""A finished event lets go of what it would have run.

An event that fired or was cancelled holds neither its callback nor
its trace context, so the exchange state a callback closes over dies
by reference count the moment the event is done: a cancelled timeout
does not pin its exchange until its deadline, and an owner that keeps
its last event (``TcpFlow._pending_event``) forms no cycle with it.
"""

from repro.sim.engine import Simulator


def scheduled_under_a_span(sim):
    tracer = sim.enable_tracing()
    with tracer.trace("cause"):
        event = sim.schedule(1.0, lambda: None, label="tick")
    assert event.callback is not None and event.ctx is not None
    return event


class TestEventRelease:
    def test_fired_event_drops_callback_and_context(self):
        sim = Simulator()
        event = scheduled_under_a_span(sim)
        sim.run()
        assert event.fired
        assert event.callback is None and event.ctx is None

    def test_cancelled_event_drops_callback_and_context(self):
        sim = Simulator()
        event = scheduled_under_a_span(sim)
        event.cancel()
        assert event.callback is None and event.ctx is None
        assert sim.run() == 0

    def test_untraced_fired_event_drops_callback(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.run()
        assert event.callback is None

    def test_profiler_still_reads_the_callback_name(self):
        sim = Simulator()
        profiler = sim.enable_profiling()

        def named_tick():
            pass

        event = sim.schedule(1.0, named_tick, label="tick")
        sim.run()
        assert event.callback is None
        [qualname] = profiler.stats["tick"].callbacks
        assert qualname.endswith("named_tick")

    def test_cancel_after_fire_keeps_released_state(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.run()
        event.cancel()
        assert event.fired and event.callback is None
