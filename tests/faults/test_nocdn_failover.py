"""NoCDN degradation path: a dead assigned peer fails over to the
next-ranked fallback peer, and to the origin when no peer can serve."""

from repro.http.messages import not_found
from repro.nocdn.loader import PageLoader
from repro.nocdn.peer import USAGE_PREFIX, NoCdnPeerService
from repro.nocdn.selection import SelectionPolicy

from tests.nocdn.harness import NoCdnWorld, make_catalog


class HungPeerService(NoCdnPeerService):
    """A wedged peer process: accepts connections, never answers."""

    def _serve_content(self, request, respond):
        pass


class PinnedSelection(SelectionPolicy):
    """Assign every object to one peer — makes failover deterministic."""

    name = "pinned"

    def __init__(self, peer_id: str):
        self.peer_id = peer_id

    def assign(self, page, client, peers, network, rng):
        return {obj.name: self.peer_id for obj in page.all_objects()}


def build(num_peers=4, seed=11, peer_timeout=5.0, peer_services=None):
    world = NoCdnWorld(num_peers=num_peers, seed=seed,
                       peer_services=peer_services)
    world.provider.selection = PinnedSelection(world.peers[0].peer_id)
    loader = PageLoader(world.client_device, world.city.network,
                        peer_timeout=peer_timeout)
    return world, loader


class TestWrapperFallbacks:
    def test_wrapper_lists_unassigned_peers_as_fallbacks(self):
        world, _loader = build()
        page = world.catalog.page("/page0")
        wrapper = world.provider.build_wrapper(page, "client")
        assert wrapper.peers_used() == [world.peers[0].peer_id]
        # Every peer not serving the page is a ranked fallback, with
        # keys and endpoints so the client can reach it immediately.
        assert set(wrapper.fallbacks) == {p.peer_id for p in world.peers[1:]}
        for peer_id in wrapper.fallbacks:
            assert peer_id in wrapper.peer_keys
            assert peer_id in wrapper.peer_endpoints

    def test_fallbacks_ranked_by_trust(self):
        world, _loader = build()
        world.provider.peers[world.peers[2].peer_id].trust = 0.4
        page = world.catalog.page("/page0")
        wrapper = world.provider.build_wrapper(page, "client")
        assert wrapper.fallbacks[-1] == world.peers[2].peer_id


class TestPeerFailover:
    def test_unreachable_peer_fails_over_to_fallback(self):
        world, loader = build()
        # Partition the assigned peer; the origin still believes it is
        # alive, so wrappers keep assigning it (stale knowledge).
        world.city.network.fail_link(
            world.city.network.links["hpop-n0h0"])
        result = world.load_page(loader=loader)
        assert result.total_bytes > 0
        assert result.peer_failures  # the dead peer was blamed
        assert loader.metrics.counters["peer_failovers"].value > 0
        assert loader.metrics.counters["origin_fallbacks"].value == 0
        assert result.bytes_from_peers > 0  # fallbacks served the chunks

    def test_crashed_peer_refuses_connections_and_fails_over(self):
        world, loader = build()
        world.hpops[0].crash()
        result = world.load_page(loader=loader)
        # A powered-off host refuses connections outright, so failover
        # is immediate — no timeout window burned.
        assert result.peer_failures
        assert loader.metrics.counters["peer_failovers"].value > 0
        assert result.total_bytes > 0

    def test_hung_peer_times_out_then_fails_over(self):
        services = [HungPeerService()] + [NoCdnPeerService()
                                          for _ in range(3)]
        world, loader = build(peer_timeout=0.5, peer_services=services)
        started = world.sim.now
        result = world.load_page(loader=loader)
        # The wedged peer accepted the fetch and never answered: each
        # chunk burned the peer-timeout window before failing over.
        assert world.sim.now - started >= 0.5
        assert result.peer_failures
        assert loader.metrics.counters["peer_failovers"].value > 0
        assert result.bytes_from_peers > 0

    def test_all_peers_dead_falls_back_to_origin(self):
        world, loader = build()
        for i in range(len(world.peers)):
            world.city.network.fail_link(
                world.city.network.links[f"hpop-n0h{i}"])
        result = world.load_page(loader=loader)
        assert result.bytes_from_origin > 0
        assert result.bytes_from_peers == 0
        assert loader.metrics.counters["origin_fallbacks"].value > 0

    def test_healthy_world_never_fails_over(self):
        world, loader = build()
        result = world.load_page(loader=loader)
        assert not result.peer_failures
        assert loader.metrics.counters["peer_failovers"].value == 0
        assert loader.metrics.counters["origin_fallbacks"].value == 0

    def test_failover_does_not_penalize_fallback_peers(self):
        """Served-by accounting: usage records credit the fallback that
        actually served, so the origin's audit never flags it."""
        world, loader = build()
        world.city.network.fail_link(
            world.city.network.links["hpop-n0h0"])
        world.load_page(loader=loader)
        world.sim.run()  # drain usage-record uploads + audits
        for peer in world.peers[1:]:
            assert world.provider.peers[peer.peer_id].trust == 1.0
            assert not world.provider.peers[peer.peer_id].expelled


class ForgetfulPeerService(NoCdnPeerService):
    """A peer that answers 404 for one object and serves the rest."""

    def __init__(self, lost):
        super().__init__()
        self.lost = lost

    def _serve_content(self, request, respond):
        if request.path.endswith(f"/{self.lost}"):
            respond(not_found(request.path))
        else:
            super()._serve_content(request, respond)


def usage_records(loader):
    """The usage records ``loader`` sends, as it sends them."""
    records = []
    real = loader.client.request

    def recording(server, request, *args, **kwargs):
        if request.path == USAGE_PREFIX:
            records.append(request.body)
        return real(server, request, *args, **kwargs)

    loader.client.request = recording
    return records


class TestUsageCredit:
    """Only a peer that served verified bytes is credited: a chunk the
    origin filled earns no usage record for the peer that failed it."""

    def test_no_record_when_every_peer_is_dead(self):
        world, loader = build()
        for i in range(len(world.peers)):
            world.city.network.fail_link(
                world.city.network.links[f"hpop-n0h{i}"])
        records = usage_records(loader)
        result = world.load_page(loader=loader)
        assert result.bytes_from_origin == 220_000
        assert loader.records_sent == 0
        assert records == []

    def test_credit_equals_peer_bytes_when_one_chunk_falls_back(self):
        catalog = make_catalog()
        lost = catalog.page("/page0").embedded[0].name
        world = NoCdnWorld(peer_services=[ForgetfulPeerService(lost)],
                           catalog=catalog)
        records = usage_records(world.loader)
        result = world.load_page()
        assert world.loader.metrics.counters["origin_fallbacks"].value == 1
        assert result.bytes_from_origin == catalog.object(lost).size
        assert lost not in {record.object_name for record in records}
        assert sum(record.bytes_served for record in records) \
            == result.bytes_from_peers
