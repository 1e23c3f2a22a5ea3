"""Origin-side accounting details: payments, trust, anomaly edge cases."""

import pytest

from repro.http.messages import HttpRequest
from repro.nocdn.records import make_record

from tests.nocdn.harness import NoCdnWorld


class TestPayments:
    def test_paid_total_accumulates_across_epochs(self):
        world = NoCdnWorld(num_peers=1, payment_per_gib=1.0)
        world.load_page()
        world.peers[0].flush_usage()
        world.sim.run()
        first = world.provider.settle_epoch()
        world.load_page()
        world.peers[0].flush_usage()
        world.sim.run()
        second = world.provider.settle_epoch()
        peer_id = world.peers[0].peer_id
        assert world.provider.paid_total[peer_id] == pytest.approx(
            first[peer_id] + second[peer_id])

    def test_settle_with_no_traffic(self):
        world = NoCdnWorld(num_peers=1)
        assert world.provider.settle_epoch() == {}

    def test_uncapped_payment_proportional_to_bytes(self):
        world = NoCdnWorld(num_peers=1, payment_per_gib=1.0)
        result = world.load_page()
        world.peers[0].flush_usage()
        world.sim.run()
        payments = world.provider.settle_epoch()
        peer_id = world.peers[0].peer_id
        expected = result.bytes_from_peers / (1024 ** 3)
        assert payments[peer_id] == pytest.approx(expected)


class TestTrustDynamics:
    def test_trust_decays_geometrically(self):
        world = NoCdnWorld(num_peers=1, trust_penalty=0.5)
        peer_id = world.peers[0].peer_id
        info = world.provider.peers[peer_id]
        world.provider._penalize(peer_id)
        assert info.trust == pytest.approx(0.5)
        world.provider._penalize(peer_id)
        assert info.trust == pytest.approx(0.25)

    def test_expulsion_threshold(self):
        world = NoCdnWorld(num_peers=1, trust_penalty=0.1,
                           expel_threshold=0.05)
        peer_id = world.peers[0].peer_id
        world.provider._penalize(peer_id)   # 0.1
        assert not world.provider.peers[peer_id].expelled
        world.provider._penalize(peer_id)   # 0.01 < 0.05
        assert world.provider.peers[peer_id].expelled

    def test_trust_expulsion_leaves_ring_and_directory(self):
        # Crossing the trust threshold is an expulsion like any other:
        # the peer must leave the strategy's ring and the directory
        # must stop advertising its copies, or neighbours keep
        # forwarding misses to a peer the origin no longer trusts.
        world = NoCdnWorld(num_peers=3, strategy="sharded",
                           trust_penalty=0.1, expel_threshold=0.05)
        for _ in range(3):  # warm every home peer's cache
            world.load_page()
        provider, directory = world.provider, world.provider.directory
        held = {key: holders for key, holders in directory.entries().items()
                if holders}
        bad = next(iter(held.values()))[0]
        assert bad in provider.strategy.ring
        for _ in range(2):  # 1.0 -> 0.1 -> 0.01 < 0.05
            provider._accept_corruption_report(HttpRequest(
                "POST", provider.corruption_report_path,
                body={"peer_id": bad}))
        assert provider.peers[bad].expelled
        assert bad not in provider.strategy.ring
        assert all(bad not in directory.holders(site, name)
                   for site, name in held)
        assert bad not in [p.peer_id for p in provider.alive_peers()]

    def test_penalize_unknown_peer_is_noop(self):
        world = NoCdnWorld(num_peers=1)
        world.provider._penalize("ghost-peer")  # no exception

    def test_manual_expulsion(self):
        world = NoCdnWorld(num_peers=2)
        target = world.peers[0].peer_id
        world.provider.expel_peer(target)
        alive = [p.peer_id for p in world.provider.alive_peers()]
        assert target not in alive
        assert world.peers[1].peer_id in alive


class TestAnomalyEdgeCases:
    def test_too_few_peers_no_flags(self):
        world = NoCdnWorld(num_peers=2)
        world.provider.payable_bytes = {
            world.peers[0].peer_id: 1e9,
            world.peers[1].peer_id: 1e3,
        }
        assert world.provider.anomalous_peers() == []

    def test_zero_median_flags_any_positive(self):
        world = NoCdnWorld(num_peers=4)
        ids = [p.peer_id for p in world.peers]
        world.provider.payable_bytes = {
            ids[0]: 5e6, ids[1]: 0.0, ids[2]: 0.0, ids[3]: 0.0}
        assert world.provider.anomalous_peers() == [ids[0]]

    def test_uniform_volumes_not_flagged(self):
        world = NoCdnWorld(num_peers=4)
        world.provider.payable_bytes = {
            p.peer_id: 1e6 for p in world.peers}
        assert world.provider.anomalous_peers() == []


class TestKeyExpiry:
    def test_expired_wrapper_key_rejected(self):
        world = NoCdnWorld(num_peers=1, key_ttl=10.0)
        wrapper = world.provider.build_wrapper(world.catalog.page("/page0"))
        peer_id = world.peers[0].peer_id
        record = make_record(wrapper.wrapper_id, peer_id, "page0.html",
                             1_000, "late-nonce", wrapper.peer_keys[peer_id])
        world.sim.run_until(world.sim.now + 60.0)  # past the key TTL
        world.provider._audit_record(peer_id, record)
        assert world.provider.audit.rejected_expired == 1
        assert world.provider.audit.accepted_records == 0
