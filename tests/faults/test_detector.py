"""HeartbeatMonitor unit tests (driven by a fake clock, no I/O)."""

import pytest

from repro.faults import HeartbeatMonitor


class Clock:
    def __init__(self):
        self.now = 0.0


def make(timeout=3.0):
    clock = Clock()
    events = []
    monitor = HeartbeatMonitor(
        clock, timeout,
        on_dead=lambda name: events.append(("dead", name)),
        on_alive=lambda name: events.append(("alive", name)))
    return clock, monitor, events


class TestHeartbeatMonitor:
    def test_timeout_must_be_positive(self):
        with pytest.raises(ValueError):
            HeartbeatMonitor(Clock(), 0.0)

    def test_grace_period_after_watch(self):
        clock, monitor, events = make(timeout=3.0)
        monitor.watch("a")
        clock.now = 3.0  # exactly the timeout: not yet overdue
        assert monitor.sweep() == []
        assert monitor.is_alive("a")
        assert not events

    def test_overdue_peer_declared_dead_once(self):
        clock, monitor, events = make(timeout=3.0)
        monitor.watch("a")
        clock.now = 3.5
        assert monitor.sweep() == ["a"]
        assert not monitor.is_alive("a")
        clock.now = 10.0
        assert monitor.sweep() == []  # no repeated on_dead
        assert events == [("dead", "a")]

    def test_beat_keeps_peer_alive(self):
        clock, monitor, events = make(timeout=3.0)
        monitor.watch("a")
        for t in (2.0, 4.0, 6.0):
            clock.now = t
            monitor.beat("a")
            assert monitor.sweep() == []
        assert not events

    def test_beat_revives_dead_peer(self):
        clock, monitor, events = make(timeout=3.0)
        monitor.watch("a")
        clock.now = 5.0
        monitor.sweep()
        monitor.beat("a")
        assert monitor.is_alive("a")
        assert events == [("dead", "a"), ("alive", "a")]
        monitor.beat("a")  # a beat to a live peer revives nothing
        # It can die again after another silence.
        clock.now = 9.0
        assert monitor.sweep() == ["a"]
        assert events == [("dead", "a"), ("alive", "a"), ("dead", "a")]

    def test_sweep_reports_in_sorted_order(self):
        clock, monitor, _events = make(timeout=1.0)
        for name in ("zeta", "alpha", "mid"):
            monitor.watch(name)
        clock.now = 5.0
        assert monitor.sweep() == ["alpha", "mid", "zeta"]

    def test_watch_is_idempotent(self):
        clock, monitor, _events = make(timeout=3.0)
        monitor.watch("a")
        clock.now = 2.5
        monitor.watch("a")  # must not reset the grace period
        clock.now = 4.0
        assert monitor.sweep() == ["a"]


class TestDeclareDead:
    def test_out_of_band_verdict_fires_on_dead(self):
        clock, monitor, events = make(timeout=3.0)
        monitor.watch("a")
        assert monitor.declare_dead("a") is True
        assert not monitor.is_alive("a")
        assert events == [("dead", "a")]

    def test_already_dead_or_unknown_is_noop(self):
        clock, monitor, events = make(timeout=3.0)
        monitor.watch("a")
        monitor.declare_dead("a")
        assert monitor.declare_dead("a") is False
        assert monitor.declare_dead("stranger") is False
        assert events == [("dead", "a")]
