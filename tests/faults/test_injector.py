"""FaultInjector unit tests: each fault kind mutates the world and
restores it, the event log is deterministic, and bad references fail
eagerly."""

import math

import pytest

from repro.faults import (
    FaultError,
    FaultInjector,
    FaultPlan,
    LatencySpike,
    LinkFlap,
    LossBurst,
    NodeCrash,
)
from repro.hpop.core import Household, Hpop, User
from repro.net.network import NetworkError
from repro.net.node import Host
from repro.net.topology import build_city
from repro.sim.engine import Simulator


def build(seed=9):
    sim = Simulator(seed=seed)
    city = build_city(sim, homes_per_neighborhood=3)
    home = city.neighborhoods[0].homes[0]
    hpop = Hpop(home.hpop_host, city.network,
                Household(name="h0", users=[User("u", "p")]))
    hpop.start()
    injector = FaultInjector(sim, city.network, hpops=[hpop])
    return sim, city, hpop, injector


def reachable(network, a, b) -> bool:
    try:
        network.path_between(a, b)
        return True
    except NetworkError:
        return False


class TestLinkFaults:
    def test_flap_fails_then_restores_routing(self):
        sim, city, _hpop, injector = build()
        device = city.neighborhoods[0].homes[0].devices[0]
        origin = city.server_sites["origin"].servers[0]
        injector.apply(FaultPlan().add(
            LinkFlap("uplink-n0", at=1.0, duration=2.0)))
        assert reachable(city.network, device, origin)
        sim.run_until(1.5)
        assert not reachable(city.network, device, origin)
        sim.run_until(4.0)
        assert reachable(city.network, device, origin)
        assert injector.metrics.counters["link_flaps"].value == 1
        assert injector.metrics.counters["faults_injected"].value == 1

    def test_permanent_flap_never_restores(self):
        sim, city, _hpop, injector = build()
        device = city.neighborhoods[0].homes[0].devices[0]
        origin = city.server_sites["origin"].servers[0]
        injector.apply(FaultPlan().add(
            LinkFlap("uplink-n0", at=1.0, duration=math.inf)))
        sim.run()
        assert not reachable(city.network, device, origin)
        events = [e["event"] for e in injector.events]
        assert events == ["link_flap_start"]

    def test_loss_burst_raises_and_restores_loss_rate(self):
        sim, city, _hpop, injector = build()
        link = city.network.links["uplink-n0"]
        base = (link.forward.loss_rate, link.reverse.loss_rate)
        injector.apply(FaultPlan().add(
            LossBurst("uplink-n0", at=1.0, duration=2.0, loss_rate=0.3)))
        sim.run_until(1.5)
        assert link.forward.loss_rate == 0.3
        assert link.reverse.loss_rate == 0.3
        sim.run_until(4.0)
        assert (link.forward.loss_rate, link.reverse.loss_rate) == base

    def test_loss_burst_never_lowers_existing_loss(self):
        sim, city, _hpop, injector = build()
        link = city.network.links["uplink-n0"]
        link.forward.loss_rate = 0.5
        injector.apply(FaultPlan().add(
            LossBurst("uplink-n0", at=1.0, duration=2.0, loss_rate=0.3)))
        sim.run_until(1.5)
        assert link.forward.loss_rate == 0.5  # kept the worse rate
        sim.run_until(4.0)
        assert link.forward.loss_rate == 0.5

    def test_corrupting_burst_tagged_in_log(self):
        sim, _city, _hpop, injector = build()
        injector.apply(FaultPlan().add(
            LossBurst("uplink-n0", at=1.0, duration=2.0, corrupting=True)))
        sim.run()
        assert injector.events[0]["corrupting"] is True

    def test_latency_spike_mutates_delay_and_reroutes(self):
        sim, city, _hpop, injector = build()
        link = city.network.links["uplink-n0"]
        base = link.delay
        device = city.neighborhoods[0].homes[0].devices[0]
        origin = city.server_sites["origin"].servers[0]
        base_rtt = city.network.path_between(device, origin).rtt
        injector.apply(FaultPlan().add(
            LatencySpike("uplink-n0", at=1.0, duration=2.0,
                         extra_delay=0.25)))
        sim.run_until(1.5)
        assert link.delay == pytest.approx(base + 0.25)
        # invalidate_routes makes fresh paths see the new delay.
        assert city.network.path_between(device, origin).rtt > base_rtt
        sim.run_until(4.0)
        assert link.delay == pytest.approx(base)
        assert city.network.path_between(device, origin).rtt == \
            pytest.approx(base_rtt)

    def test_latency_spike_leaves_every_route_unchanged(self):
        # Routing weights are fixed when a link is connected: a spike
        # changes a route's delay but not its hops, even where the
        # spiked delay makes another route shorter in time.
        sim = Simulator(seed=9)
        city = build_city(sim, num_neighborhoods=2, homes_per_neighborhood=2,
                          server_sites={"origin": 1, "edge": 1})
        network = city.network
        hosts = [n for n in network.nodes.values() if isinstance(n, Host)]
        assert len(hosts) == 14

        def routes():
            return {(a.name, b.name): network.path_between(a, b).describe()
                    for a in hosts for b in hosts if a is not b}

        before = routes()
        spiked = network.links["core-core0-core1"]
        crossing = next(pair for pair, hops in before.items()
                        if "core0 -> core1" in hops)
        base_rtt = network.path_between(
            network.nodes[crossing[0]], network.nodes[crossing[1]]).rtt
        injector = FaultInjector(sim, network)
        injector.apply(FaultPlan().add(
            LatencySpike(spiked, at=1.0, duration=2.0, extra_delay=0.25)))
        sim.run_until(1.5)
        # The spike's own invalidate_routes has run; the detour by
        # core2 is now 240 ms shorter, and still not taken.
        assert network.path_between(
            network.nodes[crossing[0]], network.nodes[crossing[1]]).rtt \
            == pytest.approx(base_rtt + 0.5)
        assert routes() == before
        sim.run_until(4.0)
        assert routes() == before

    def test_link_object_accepted_directly(self):
        sim, city, _hpop, injector = build()
        link = city.network.links["uplink-n0"]
        injector.apply(FaultPlan().add(LinkFlap(link, at=1.0, duration=1.0)))
        sim.run_until(1.5)
        assert not link.up


class TestNodeFaults:
    def test_crash_and_restart_cycle(self):
        sim, _city, hpop, injector = build()
        injector.apply(FaultPlan().add(
            NodeCrash(hpop.host.name, at=1.0, downtime=3.0)))
        sim.run_until(2.0)
        assert not hpop.running
        assert not hpop.host.powered
        sim.run_until(5.0)
        assert hpop.running
        assert hpop.host.powered
        assert injector.metrics.counters["node_crashes"].value == 1
        assert injector.metrics.counters["node_restarts"].value == 1

    def test_permanent_crash_never_restarts(self):
        sim, _city, hpop, injector = build()
        injector.apply(FaultPlan().add(
            NodeCrash(hpop.host.name, at=1.0, downtime=math.inf)))
        sim.run()
        assert not hpop.running
        assert injector.metrics.counters["node_restarts"].value == 0


class TestValidationAndLog:
    def test_unknown_link_rejected_eagerly(self):
        _sim, _city, _hpop, injector = build()
        with pytest.raises(FaultError):
            injector.apply(FaultPlan().add(
                LinkFlap("no-such-link", at=1.0, duration=1.0)))

    def test_unknown_node_rejected_eagerly(self):
        _sim, _city, _hpop, injector = build()
        with pytest.raises(FaultError):
            injector.apply(FaultPlan().add(
                NodeCrash("no-such-node", at=1.0, downtime=1.0)))

    def test_active_faults_gauge_tracks_windows(self):
        sim, _city, hpop, injector = build()
        gauge = injector.metrics.gauges["active_faults"]
        injector.apply(FaultPlan()
                       .add(LinkFlap("uplink-n0", at=1.0, duration=4.0))
                       .add(NodeCrash(hpop.host.name, at=2.0, downtime=1.0)))
        assert gauge.read() == 0.0
        sim.run_until(2.5)
        assert gauge.read() == 2.0
        sim.run_until(3.5)
        assert gauge.read() == 1.0
        sim.run_until(6.0)
        assert gauge.read() == 0.0

    def test_export_jsonl_is_byte_identical_across_runs(self, tmp_path):
        def one_run(path):
            sim, _city, hpop, injector = build(seed=23)
            plan = FaultPlan.churn([hpop.host.name], 1.0, horizon=5.0,
                                   rng=sim.rng.stream("chaos"))
            plan.add(LossBurst("uplink-n0", at=0.5, duration=2.0))
            injector.apply(plan)
            sim.run()
            assert injector.export_jsonl(str(path)) == len(injector.events)
            return path.read_bytes()

        first = one_run(tmp_path / "a.jsonl")
        second = one_run(tmp_path / "b.jsonl")
        assert first == second
        assert first.count(b"\n") == 4  # burst start/end + crash + restart

    def test_events_record_simulated_time_in_order(self):
        sim, _city, _hpop, injector = build()
        injector.apply(FaultPlan()
                       .add(LinkFlap("uplink-n0", at=2.0, duration=1.0))
                       .add(LossBurst("access-n0h0", at=1.0, duration=0.5)))
        sim.run()
        times = [e["t"] for e in injector.events]
        assert times == sorted(times)
        assert times[0] == 1.0

    def test_fault_spans_emitted_when_tracing(self):
        sim, _city, hpop, injector = build()
        tracer = sim.enable_tracing()
        injector.apply(FaultPlan().add(
            NodeCrash(hpop.host.name, at=1.0, downtime=1.0)))
        sim.run()
        names = [s.name for s in tracer.spans()]
        assert "fault.node_crash" in names
