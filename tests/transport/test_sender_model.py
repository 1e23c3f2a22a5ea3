"""The one sender model: ``TcpFlow`` and ``MptcpSubflow`` own the same
``CongestionWindow``, so a flow and a one-subflow connection are the
same transfer, bytes are conserved at every event, and the window keeps
its bounds whatever the loss pattern."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net.network import compose_paths
from repro.net.topology import build_detour_testbed, build_dumbbell
from repro.sim.engine import Simulator
from repro.transport.mptcp import MptcpConnection, MptcpSubflow
from repro.transport.tcp import MIN_RTO, MSS, CongestionWindow, TcpFlow
from repro.util.units import gbps, mbps, mib

# The simulator is deterministic, so the generated cases are too: a
# failure here is a regression, never a flake.
PROPERTY = settings(max_examples=50, deadline=None, derandomize=True)

sizes = st.integers(min_value=100_000, max_value=mib(8))
loss_rates = st.floats(min_value=0.0, max_value=0.2)
bottlenecks = st.floats(min_value=mbps(20), max_value=gbps(1))
seeds = st.integers(min_value=0, max_value=2**16)


def download_path(seed, loss, bottleneck):
    sim = Simulator(seed=seed)
    bell = build_dumbbell(sim, bottleneck_bps=bottleneck, loss_rate=loss)
    return sim, bell.network.path_between(bell.server, bell.client)


def per_round_bytes(stats):
    totals = [total for _t, total in stats.progress]
    return [b - a for a, b in zip([0.0] + totals, totals)]


class TestDifferential:
    """The oracle shape a collapsed flow model is to be checked with:
    two owners of the stepped model, side by side, round for round."""

    @PROPERTY
    @given(size=sizes, loss=loss_rates, bottleneck=bottlenecks, seed=seeds)
    @example(size=mib(50), loss=0.0, bottleneck=gbps(1), seed=1)
    @example(size=mib(20), loss=0.01, bottleneck=gbps(1), seed=2)
    @example(size=mib(2), loss=0.2, bottleneck=mbps(100), seed=4)
    def test_flow_and_one_subflow_connection_agree(self, size, loss,
                                                   bottleneck, seed):
        sim, path = download_path(seed, loss, bottleneck)
        # The subflow's loss stream, so both draw the same numbers.
        flow = TcpFlow(sim, path, size, rng_stream="mptcp.loss")
        sim.run()

        sim, path = download_path(seed, loss, bottleneck)
        conn = MptcpConnection(sim, size)
        subflow = conn.add_subflow(path)
        sim.run()

        assert flow.done and conn.done
        for counter in ("rounds", "loss_events", "timeouts"):
            assert (getattr(subflow.stats, counter)
                    == getattr(flow.stats, counter)), counter
        assert per_round_bytes(subflow.stats) == pytest.approx(
            per_round_bytes(flow.stats), rel=1e-6)
        assert conn.stats.bytes_delivered == pytest.approx(
            flow.stats.bytes_delivered, rel=1e-6)


def detour_bed(seed):
    """Native route with 2% loss, waypoint 2 with 3%: lossy subflows."""
    sim = Simulator(seed=seed)
    bed = build_detour_testbed(sim)
    direct = bed.network.path_between(bed.client, bed.server)
    detours = [compose_paths(bed.network.path_between(bed.client, wp),
                             bed.network.path_between(wp, bed.server))
               for wp in bed.waypoints]
    return sim, direct, detours


def run_checking_pool(sim, conn):
    """Step to the end asserting pool conservation after every event;
    returns whether any subflow was seen parked."""
    parked = False
    while sim.step():
        in_flight = [sf._in_flight for sf in conn.subflows]
        assert conn._unclaimed >= 0 and min(in_flight) >= -1e-6
        assert (conn._unclaimed + sum(in_flight) + conn._delivered
                == pytest.approx(conn.total, rel=1e-9))
        parked = parked or any(sf._parked for sf in conn.subflows)
    return parked


class TestConservation:
    @PROPERTY
    @given(size=sizes, loss=loss_rates, bottleneck=bottlenecks, seed=seeds)
    def test_flow_accounts_every_byte_at_every_event(self, size, loss,
                                                     bottleneck, seed):
        sim, path = download_path(seed, loss, bottleneck)
        flow = TcpFlow(sim, path, size)
        while sim.step():
            assert flow.stats.bytes_delivered + flow.remaining \
                == pytest.approx(size, rel=1e-9)
        assert flow.done and flow.remaining == 0

    @PROPERTY
    @given(size=sizes, seed=seeds,
           churn=st.lists(st.tuples(st.floats(min_value=0.0, max_value=1.5),
                                    st.integers(min_value=0, max_value=2)),
                          max_size=8))
    def test_pool_accounts_every_byte_while_subflows_come_and_go(
            self, size, seed, churn):
        sim, direct, detours = detour_bed(seed)
        conn = MptcpConnection(sim, size)
        conn.add_subflow(direct)   # stays, so the transfer can finish
        attached = {}

        def toggle(index):
            if conn.done:
                return
            if index in attached:
                conn.remove_subflow(attached.pop(index))
            else:
                attached[index] = conn.add_subflow(detours[index])

        for at, index in churn:
            sim.at(at, lambda index=index: toggle(index))
        run_checking_pool(sim, conn)
        assert conn.done
        assert conn.stats.bytes_delivered == pytest.approx(size)

    def test_lossy_and_parked_subflows_strand_nothing(self):
        sim, direct, detours = detour_bed(seed=3)
        conn = MptcpConnection(sim, mib(2))
        subflows = [conn.add_subflow(path) for path in [direct] + detours]
        assert run_checking_pool(sim, conn)  # the pool ran dry mid-round
        assert sum(sf.stats.loss_events for sf in subflows) > 0
        assert conn.done
        assert sum(sf.stats.bytes_delivered for sf in subflows) \
            == pytest.approx(mib(2))


class TestWindowInvariants:
    @PROPERTY
    @given(rounds=st.lists(
        st.tuples(st.integers(min_value=0, max_value=3),       # lost packets
                  st.floats(min_value=1e-3, max_value=0.5),    # rtt
                  st.floats(min_value=1e5, max_value=1e10)),   # share, bps
        min_size=1, max_size=200))
    def test_bounds_hold_after_every_round(self, rounds):
        window = CongestionWindow(random.Random(0))
        for lost_packets, rtt, share_bps in rounds:
            timed_out, pause = window.on_round(lost_packets, rtt, share_bps)
            assert window.cwnd >= MSS
            assert window.ssthresh >= 2 * MSS
            if lost_packets == 0:
                assert window.cwnd <= max(4 * (share_bps * rtt / 8), 4 * MSS)
            assert timed_out == (pause > 0)
            if timed_out:
                assert lost_packets > 0 and window.cwnd == MSS
                assert pause == max(MIN_RTO, 2 * rtt)

    def test_one_rng_draw_per_lossy_round_and_none_on_a_clean_path(self):
        rng, reference = random.Random(1), random.Random(1)
        window = CongestionWindow(rng)
        assert window.draw_losses(1e6, 0.0) == 0
        assert rng.getstate() == reference.getstate()
        expected = int(1e6 / MSS) * 0.01
        assert window.draw_losses(1e6, 0.01) in (int(expected),
                                                 int(expected) + 1)
        reference.random()
        assert rng.getstate() == reference.getstate()


class TestDeletedParameters:
    """MSS, IW10 and the RTO floor are constants of the model."""

    @pytest.mark.parametrize("deleted", [
        {"mss": 1460}, {"initial_window_segments": 10},
        {"extra_rtt": 0.0}, {"min_rto": 0.2}])
    def test_flow_rejects(self, deleted):
        sim, path = download_path(0, 0.0, gbps(1))
        with pytest.raises(TypeError):
            TcpFlow(sim, path, 1000, **deleted)

    @pytest.mark.parametrize("deleted", [
        {"mss": 1460}, {"rng_stream": "mptcp.loss"}])
    def test_subflow_rejects(self, deleted):
        sim, path = download_path(0, 0.0, gbps(1))
        with pytest.raises(TypeError):
            MptcpSubflow(MptcpConnection(sim, 1000), path, "sf", **deleted)
