"""NoCDN end-to-end tests: delivery, integrity, accounting, baselines."""

import pytest

from repro.cdn.baselines import BaselinePageLoader, TraditionalCdn
from repro.http.messages import not_found
from repro.nocdn.loader import PageLoader
from repro.nocdn.peer import NoCdnPeerService
from repro.nocdn.records import make_record
from repro.nocdn.selection import (
    LoadAwareSelection,
    ProximitySelection,
    TrustWeightedSelection,
)
from repro.util.crypto import deterministic_key

from tests.nocdn.harness import NoCdnWorld, make_catalog


class TestHappyPath:
    def test_page_served_by_peers(self):
        world = NoCdnWorld(num_peers=3)
        result = world.load_page()
        page = world.catalog.page("/page0")
        assert result.bytes_from_peers == page.total_size
        assert result.bytes_from_origin == 0
        assert result.corrupted == []
        assert not result.direct_mode
        assert result.duration > 0

    def test_origin_serves_only_wrapper_after_warmup(self):
        world = NoCdnWorld(num_peers=2)
        # Several warm-up loads so both peers cache every object (random
        # per-object selection spreads assignments across loads).
        for _ in range(5):
            world.load_page()
        served_after_warmup = world.provider.origin_bytes_served
        result = world.load_page()
        extra = world.provider.origin_bytes_served - served_after_warmup
        # Warm load: origin only produced a wrapper (~KBs), peers the rest.
        assert extra < 10_000
        assert result.bytes_from_peers == world.catalog.page("/page0").total_size

    def test_peer_caches_hit_on_second_load(self):
        world = NoCdnWorld(num_peers=1)
        world.load_page()
        fills_first = world.peers[0].origin_fills
        world.load_page()
        assert world.peers[0].origin_fills == fills_first

    def test_no_peers_direct_mode(self):
        world = NoCdnWorld(num_peers=0)
        result = world.load_page()
        assert result.direct_mode
        assert result.bytes_from_origin >= world.catalog.page("/page0").total_size
        assert world.provider.direct_pages_served == 1

    @pytest.mark.parametrize("loader", ["direct", "origin_baseline"])
    def test_a_404_object_is_listed_missing(self, loader):
        world = NoCdnWorld(num_peers=0)
        page = world.catalog.page("/page0")
        lost = page.embedded[0]
        world.provider.server.route(
            f"{world.provider.objects_prefix}/{lost.name}",
            lambda request: not_found(request.path),
            virtual_host=world.provider.site_name)
        if loader == "direct":
            result = world.load_page()
        else:
            results = []
            BaselinePageLoader(world.client_device, world.city.network) \
                .load_via_origin(world.provider, "/page0", results.append)
            world.sim.run()
            [result] = results
        assert result.direct_mode
        assert result.missing == [lost.name]
        assert result.bytes_from_origin == page.total_size - lost.size

    def test_direct_mode_lists_a_failed_exchange_as_missing(self):
        world = NoCdnWorld(num_peers=0)
        page = world.catalog.page("/page0")
        hung = page.embedded[1]
        # The origin never answers this object: its exchange times out.
        world.provider.server.route_async(
            f"{world.provider.objects_prefix}/{hung.name}",
            lambda request, respond: None,
            virtual_host=world.provider.site_name)
        result = world.load_page()
        assert result.direct_mode
        assert result.missing == [hung.name]
        assert result.bytes_from_origin == page.total_size - hung.size
        assert world.loader.client.exchanges_failed == 1

    def test_loader_script_cached_across_loads(self):
        world = NoCdnWorld(num_peers=1)
        r1 = world.load_page()
        r2 = world.load_page()
        # Second load skips the loader-script fetch, so it is faster
        # (also benefits from warm peer cache and connections).
        assert r2.duration < r1.duration

    def test_chunked_delivery(self):
        catalog = make_catalog(objects_per_page=1, object_size=400_000)
        world = NoCdnWorld(num_peers=4, catalog=catalog, chunk_size=100_000)
        result = world.load_page()
        assert result.bytes_from_peers == catalog.page("/page0").total_size
        assert result.corrupted == []
        # Multiple peers actually served bytes.
        servers = [p for p in world.peers if p.bytes_served > 0]
        assert len(servers) > 1


class TestIntegrity:
    def test_tampering_peer_detected_and_recovered(self):
        tamperer = NoCdnPeerService(tamper=True)
        world = NoCdnWorld(peer_services=[tamperer])
        result = world.load_page()
        page = world.catalog.page("/page0")
        # Every object got corrupted, detected, and re-fetched from origin.
        assert len(result.corrupted) == page.object_count
        assert result.bytes_from_origin == page.total_size
        info = world.provider.peers[tamperer.peer_id]
        assert info.corruption_reports == page.object_count
        assert info.trust < 1.0

    def test_tamperer_eventually_expelled(self):
        tamperer = NoCdnPeerService(tamper=True)
        honest = NoCdnPeerService()
        world = NoCdnWorld(peer_services=[tamperer, honest])
        for _ in range(5):
            world.load_page()
        info = world.provider.peers[tamperer.peer_id]
        assert info.expelled
        # Once expelled, loads are clean.
        result = world.load_page()
        assert result.corrupted == []

    def test_mixed_peers_only_tampered_objects_recovered(self):
        tamperer = NoCdnPeerService(tamper=True)
        honest = NoCdnPeerService()
        world = NoCdnWorld(peer_services=[tamperer, honest], seed=13)
        result = world.load_page()
        page = world.catalog.page("/page0")
        assert 0 < len(result.corrupted) <= page.object_count
        assert result.bytes_from_peers + result.bytes_from_origin >= page.total_size

    def test_dead_peer_failover_to_origin(self):
        peer = NoCdnPeerService()
        world = NoCdnWorld(peer_services=[peer])
        world.load_page()
        # Kill the peer host after wrapper issuance has begun: the origin
        # still assigns it (stale knowledge), the loader fails over.
        wrapper = world.provider.build_wrapper(world.catalog.page("/page0"))
        assert wrapper is not None
        world.hpops[0].host.power_off()
        results = []
        world.loader._wrapped_load(world.provider, wrapper, world.sim.now, 100,
                                   results.append, lambda e: None)
        world.sim.run()
        assert len(results) == 1
        result = results[0]
        page = world.catalog.page("/page0")
        assert result.bytes_from_origin == page.total_size
        assert len(result.peer_failures) == page.object_count


class TestAccounting:
    def test_usage_records_verified_and_credited(self):
        world = NoCdnWorld(num_peers=2)
        result = world.load_page()
        for peer in world.peers:
            peer.flush_usage()
        world.sim.run()
        audit = world.provider.audit
        assert audit.accepted_records > 0
        assert audit.rejected_total == 0
        assert audit.accepted_bytes == pytest.approx(result.bytes_from_peers)
        total_payable = sum(world.provider.payable_bytes.values())
        assert total_payable == pytest.approx(result.bytes_from_peers)

    def test_inflated_records_rejected(self):
        cheater = NoCdnPeerService(inflate_factor=2.0)
        world = NoCdnWorld(peer_services=[cheater])
        world.load_page()
        cheater.flush_usage()
        world.sim.run()
        audit = world.provider.audit
        assert audit.accepted_records == 0
        assert audit.rejected_bad_signature > 0
        assert world.provider.payable_bytes.get(cheater.peer_id, 0) == 0
        assert world.provider.peers[cheater.peer_id].trust < 1.0

    def test_replayed_records_rejected(self):
        replayer = NoCdnPeerService(replay_records=True)
        world = NoCdnWorld(peer_services=[replayer])
        world.load_page()
        replayer.flush_usage()
        world.sim.run()
        accepted_first = world.provider.audit.accepted_records
        assert accepted_first > 0
        replayer.flush_usage()  # uploads the same records again
        world.sim.run()
        audit = world.provider.audit
        assert audit.accepted_records == accepted_first
        assert audit.rejected_replay > 0

    def test_over_cap_records_rejected(self):
        world = NoCdnWorld(num_peers=1)
        wrapper = world.provider.build_wrapper(world.catalog.page("/page0"))
        peer_id = world.peers[0].peer_id
        key = wrapper.peer_keys[peer_id]
        # A colluding client signs a record far beyond the wrapper's cap.
        record = make_record(wrapper.wrapper_id, peer_id, "page0.html",
                             10 ** 9, "collusion-nonce", key)
        world.provider._audit_record(peer_id, record)
        assert world.provider.audit.rejected_over_cap == 1
        assert world.provider.payable_bytes.get(peer_id, 0) == 0

    def test_unknown_wrapper_rejected(self):
        world = NoCdnWorld(num_peers=1)
        peer_id = world.peers[0].peer_id
        record = make_record("bogus-wrapper", peer_id, "obj", 100, "n",
                             deterministic_key("guess"))
        world.provider._audit_record(peer_id, record)
        assert world.provider.audit.rejected_unknown_key == 1

    def test_settle_epoch_pays_and_caps(self):
        world = NoCdnWorld(num_peers=1, payment_cap_bytes=10_000,
                           payment_per_gib=1.0)
        world.load_page()
        world.peers[0].flush_usage()
        world.sim.run()
        payments = world.provider.settle_epoch()
        peer_id = world.peers[0].peer_id
        assert payments[peer_id] == pytest.approx(10_000 / 1024 ** 3)
        assert world.provider.payable_bytes == {}

    def test_anomaly_detection_flags_colluder(self):
        world = NoCdnWorld(num_peers=4)
        # Normal volumes for three peers, a huge verified volume for one
        # (as a colluding client+peer pair would produce).
        page = world.catalog.page("/page0")
        for _ in range(30):
            wrapper = world.provider.build_wrapper(page)
            colluder = world.peers[0].peer_id
            if colluder in wrapper.peer_keys:
                cap = wrapper.expected_bytes_for(colluder)
                if cap > 0:
                    record = make_record(
                        wrapper.wrapper_id, colluder, "page0.html",
                        min(cap, 20_000),
                        f"n-{world.sim.ids.next_int('col')}",
                        wrapper.peer_keys[colluder])
                    world.provider._audit_record(colluder, record)
        # Light legitimate traffic for the others.
        for peer in world.peers[1:]:
            wrapper = world.provider.build_wrapper(page)
            pid = peer.peer_id
            if pid in wrapper.peer_keys:
                cap = wrapper.expected_bytes_for(pid)
                if cap > 0:
                    record = make_record(
                        wrapper.wrapper_id, pid, "page0.html",
                        min(cap, 1_000),
                        f"n-{world.sim.ids.next_int('col')}",
                        wrapper.peer_keys[pid])
                    world.provider._audit_record(pid, record)
        flagged = world.provider.anomalous_peers(factor=5.0)
        assert world.peers[0].peer_id in flagged


class TestSelectionPolicies:
    def test_proximity_picks_nearest(self):
        world = NoCdnWorld(num_peers=3, selection=ProximitySelection())
        result = world.load_page()
        assert result.bytes_from_peers > 0
        # All objects from exactly one peer (the nearest).
        servers = [p for p in world.peers if p.bytes_served > 0]
        assert len(servers) == 1

    def test_load_aware_spreads(self):
        world = NoCdnWorld(num_peers=3, selection=LoadAwareSelection())
        world.load_page()
        servers = [p for p in world.peers if p.bytes_served > 0]
        assert len(servers) == 3  # 5 objects over 3 peers round-robin

    def test_trust_weighted_shuns_low_trust(self):
        world = NoCdnWorld(num_peers=3,
                           selection=TrustWeightedSelection())
        # Crush one peer's trust score.
        shunned = world.peers[0].peer_id
        world.provider.peers[shunned].trust = 0.001
        for _ in range(5):
            world.load_page()
        assert world.peers[0].bytes_served < world.peers[1].bytes_served


class TestBaselines:
    def test_origin_only_load(self):
        world = NoCdnWorld(num_peers=0)
        loader = BaselinePageLoader(world.client_device, world.city.network)
        results = []
        loader.load_via_origin(world.provider, "/page0", results.append)
        world.sim.run()
        page = world.catalog.page("/page0")
        assert results[0].bytes_from_origin == page.total_size

    def test_cdn_edge_serves_after_warmup(self):
        world = NoCdnWorld(num_peers=0)
        cdn = TraditionalCdn(world.provider, world.city.network)
        edge_host = world.city.server_sites["edge"].servers[0]
        edge = cdn.deploy_edge(edge_host)
        loader = BaselinePageLoader(world.client_device, world.city.network)
        results = []
        loader.load_via_cdn(cdn, "/page0", results.append)
        world.sim.run()
        fills_cold = edge.origin_fills
        assert fills_cold > 0
        loader.load_via_cdn(cdn, "/page0", results.append)
        world.sim.run()
        assert edge.origin_fills == fills_cold  # warm cache
        page = world.catalog.page("/page0")
        assert results[1].bytes_from_peers == page.total_size

    def test_edge_for_prefers_closest(self):
        world = NoCdnWorld(num_peers=0)
        cdn = TraditionalCdn(world.provider, world.city.network)
        near = cdn.deploy_edge(world.city.server_sites["edge"].servers[0])
        far = cdn.deploy_edge(world.provider.host)
        chosen = cdn.edge_for(world.client_device)
        near_rtt = world.city.network.path_between(
            world.client_device, near.host).rtt
        far_rtt = world.city.network.path_between(
            world.client_device, far.host).rtt
        expected = near if near_rtt <= far_rtt else far
        assert chosen is expected

    def test_dead_edge_skipped(self):
        world = NoCdnWorld(num_peers=0)
        cdn = TraditionalCdn(world.provider, world.city.network)
        a = cdn.deploy_edge(world.city.server_sites["edge"].servers[0])
        b = cdn.deploy_edge(world.provider.host)
        preferred = cdn.edge_for(world.client_device)
        preferred.host.power_off()
        other = a if preferred is b else b
        assert cdn.edge_for(world.client_device) is other
