"""The hierarchical path provider must agree with the generic solver.

``hierarchical_path_provider`` composes routes arithmetically from the
city's tree structure; these tests pin that it produces exactly the
paths Dijkstra would (build_city routes are unique tree walks), and
that it steps aside — returning None so the generic solver decides —
whenever a hop is failed or an endpoint is foreign to the hierarchy.
"""

import pytest

from repro.net.network import NetworkError
from repro.net.topology import build_city, hierarchical_path_provider
from repro.sim.engine import Simulator


@pytest.fixture()
def city():
    sim = Simulator(seed=5)
    return build_city(sim, num_neighborhoods=2, homes_per_neighborhood=3,
                      server_sites={"origin": 1, "edge": 1})


def hops(path):
    return [d.name for d in path.directions]


def solver_path(network, a, b):
    """The generic path search's answer, bypassing provider and cache."""
    provider, network.path_provider = network.path_provider, None
    network.invalidate_routes()
    try:
        return network.path_between(a, b)
    finally:
        network.path_provider = provider
        network.invalidate_routes()


def endpoint_pairs(city):
    n0, n1 = city.neighborhoods
    origin = city.server_sites["origin"].servers[0]
    edge = city.server_sites["edge"].servers[0]
    return [
        (n0.homes[0].hpop_host, origin),          # leaf -> server via core
        (origin, n0.homes[0].hpop_host),          # and the reverse
        (n0.homes[0].devices[0], n0.homes[0].hpop_host),   # same home
        (n0.homes[0].devices[0], n0.homes[2].hpop_host),   # same nbhd
        (n0.homes[1].hpop_host, n1.homes[2].hpop_host),    # cross nbhd
        (origin, edge),                            # site to site
        (n0.aggregation_router, origin),           # router endpoint
    ]


class TestProviderMatchesSolver:
    def test_same_hops_for_every_pair_shape(self, city):
        provider = hierarchical_path_provider(city)
        for a, b in endpoint_pairs(city):
            composed = provider(a, b)
            assert composed is not None, f"{a.name}->{b.name}"
            expected = solver_path(city.network, a, b)
            assert hops(composed) == hops(expected), f"{a.name}->{b.name}"
            assert composed.source is a and composed.dest is b

    def test_installed_provider_serves_path_between(self, city):
        city.network.path_provider = hierarchical_path_provider(city)
        a = city.neighborhoods[0].homes[0].hpop_host
        b = city.server_sites["origin"].servers[0]
        path = city.network.path_between(a, b)
        assert hops(path) == hops(solver_path(city.network, a, b))


class TestProviderStepsAside:
    def test_failed_link_falls_back_to_rerouting(self, city):
        city.network.path_provider = hierarchical_path_provider(city)
        a = city.neighborhoods[0].homes[0].hpop_host
        b = city.server_sites["origin"].servers[0]
        direct = city.network.path_between(a, b)
        core_names = {r.name for r in city.core_routers}
        core_hop = next(d for d in direct.directions
                        if d.link.a.name in core_names
                        and d.link.b.name in core_names)
        city.network.fail_link(core_hop.link)
        rerouted = city.network.path_between(a, b)
        # The provider declined (its hop is down); the generic solver
        # found the two-hop core detour, exactly as without a provider.
        assert core_hop.name not in hops(rerouted)
        assert len(rerouted.directions) == len(direct.directions) + 1
        city.network.restore_link(core_hop.link)
        assert hops(city.network.path_between(a, b)) == hops(direct)

    def test_unknown_node_falls_back(self, city):
        provider = hierarchical_path_provider(city)
        # A host wired up outside the builder's hierarchy.
        stray = city.network.add_host("stray")
        city.network.connect(city.core_routers[0], stray, 1e9, 0.001,
                             name="stray-link")
        origin = city.server_sites["origin"].servers[0]
        assert provider(stray, origin) is None
        city.network.path_provider = provider
        assert city.network.path_between(stray, origin) is not None

    def test_disconnected_home_still_raises(self, city):
        city.network.path_provider = hierarchical_path_provider(city)
        home = city.neighborhoods[0].homes[0]
        city.network.fail_link(home.access_link)
        with pytest.raises(NetworkError):
            city.network.path_between(
                home.hpop_host, city.server_sites["origin"].servers[0])
