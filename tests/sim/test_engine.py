"""Discrete-event engine tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Process, SimulationError, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_equal_times_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for tag in "abc":
            sim.schedule(1.0, lambda t=tag: fired.append(t))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_cannot_schedule_into_past(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(0.5, lambda: None)

    def test_cancel(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("x"))
        event.cancel()
        sim.run()
        assert fired == []

    def test_call_soon_runs_at_current_time(self):
        sim = Simulator()
        times = []
        sim.schedule(5.0, lambda: sim.call_soon(lambda: times.append(sim.now)))
        sim.run()
        assert times == [5.0]

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(1.0, lambda: fired.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == [("outer", 1.0), ("inner", 2.0)]


class TestRunUntil:
    def test_run_until_stops_at_time(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run_until(1.5)
        assert fired == [1]
        assert sim.now == 1.5
        sim.run()
        assert fired == [1, 2]

    def test_run_until_includes_events_at_the_bound(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append(sim.now))
        assert sim.run_until(2.0) == 1
        assert fired == [2.0]

    def test_run_until_advances_clock_even_when_idle(self):
        sim = Simulator()
        sim.run_until(10.0)
        assert sim.now == 10.0

    def test_run_until_backwards_raises(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.run_until(4.0)

    def test_runaway_loop_detected(self):
        sim = Simulator()

        def respawn():
            sim.schedule(0.001, respawn)

        sim.schedule(0.001, respawn)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)
        assert sim.events_fired == 100
        with pytest.raises(SimulationError):
            sim.run_until(sim.now + 1.0, max_events=100)
        assert sim.events_fired == 200

    def test_run_spending_exactly_max_events_is_not_runaway(self):
        sim = Simulator()
        for delay in (1.0, 2.0, 3.0):
            sim.schedule(delay, lambda: None)
        assert sim.run(max_events=3) == 3
        assert sim.pending_events == 0

    def test_run_until_spending_exactly_max_events_reaches_time(self):
        sim = Simulator()
        for delay in (1.0, 2.0, 3.0, 11.0):
            sim.schedule(delay, lambda: None)
        assert sim.run_until(10.0, max_events=3) == 3
        assert sim.now == 10.0
        assert sim.pending_events == 1


class TestIntrospection:
    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        event = sim.schedule(2.0, lambda: None)
        event.cancel()
        assert sim.pending_events == 1

    def test_events_fired_counter(self):
        sim = Simulator()
        for _ in range(3):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_fired == 3

    def test_simulator_rng_deterministic(self, seeded_sim):
        a = seeded_sim(5).rng.stream("x").random()
        b = seeded_sim(5).rng.stream("x").random()
        assert a == b


@pytest.mark.parametrize("drive", [lambda sim: sim.run(),
                                   lambda sim: sim.run_until(10.0)],
                         ids=["run", "run_until"])
def test_instruments_switched_mid_run_apply_from_the_next_event(drive):
    sim = Simulator()
    fired = []
    attached = {}
    switches = {
        1: lambda: attached.update(tracer=sim.enable_tracing()),
        3: sim.disable_tracing,
        4: lambda: attached.update(profiler=sim.enable_profiling()),
        6: sim.disable_profiling,
    }
    for n in range(1, 8):
        def fire(n=n):
            fired.append(n)
            switches.get(n, lambda: None)()
        sim.schedule(float(n), fire, label=f"e{n}")
    drive(sim)
    assert fired == [1, 2, 3, 4, 5, 6, 7]
    assert sim.events_fired == 7 and sim.pending_events == 0
    # The event that attaches an instrument is not seen by it; the one
    # that detaches it still is.
    assert [mark.name for mark in attached["tracer"].spans()] == ["e2", "e3"]
    assert sorted(attached["profiler"].stats) == ["e5", "e6"]
    # Everything detached again: back on the uninstrumented dispatcher,
    # so an instrument that was switched off costs nothing per event.
    assert sim._dispatch is None


class TestProcess:
    def test_periodic_fires_until_stop(self):
        sim = Simulator()
        proc = Process(sim, "ticker")
        ticks = []
        proc.every(1.0, lambda: ticks.append(sim.now))
        sim.run_until(3.5)
        proc.stop()
        sim.run_until(10.0)
        assert ticks == [1.0, 2.0, 3.0]
        assert proc.stopped

    def test_invalid_interval(self):
        proc = Process(Simulator(), "p")
        with pytest.raises(SimulationError):
            proc.every(0, lambda: None)

    def test_jittered_periodic_still_fires(self, seeded_sim):
        sim = seeded_sim(3)
        proc = Process(sim, "jitter")
        ticks = []
        proc.every(1.0, lambda: ticks.append(sim.now), jitter_stream="jit")
        sim.run_until(10.0)
        assert 8 <= len(ticks) <= 12
        # Jitter means ticks are not exactly on integers.
        assert any(abs(t - round(t)) > 1e-9 for t in ticks)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=100,
                          allow_nan=False), max_size=40))
def test_property_clock_never_goes_backwards(delays):
    sim = Simulator()
    observed = []
    for delay in delays:
        sim.schedule(delay, lambda: observed.append(sim.now))
    sim.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)
