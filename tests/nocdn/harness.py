"""Shared harness for NoCDN end-to-end tests and benches."""

from __future__ import annotations

from typing import List, Optional

from repro.hpop.core import Household, Hpop, User
from repro.http.content import ContentCatalog
from repro.net.topology import build_city
from repro.nocdn.directory import ContentDirectory
from repro.nocdn.loader import PageLoader
from repro.nocdn.origin import ContentProvider
from repro.nocdn.peer import NoCdnPeerService
from repro.nocdn.strategy import make_strategy
from repro.sim.engine import Simulator
from repro.workloads.web import make_catalog


class NoCdnWorld:
    """A city with HPoP peers, one origin, and client loaders."""

    def __init__(
        self,
        num_peers: int = 3,
        seed: int = 11,
        homes: int = 8,
        peer_services: Optional[List[NoCdnPeerService]] = None,
        catalog: Optional[ContentCatalog] = None,
        strategy: Optional[str] = None,
        gossip_interval: float = 0.0,
        **provider_kwargs,
    ):
        self.sim = Simulator(seed=seed)
        self.city = build_city(self.sim, homes_per_neighborhood=homes,
                               server_sites={"origin": 1, "edge": 1})
        self.catalog = catalog or make_catalog()
        origin_host = self.city.server_sites["origin"].servers[0]
        # A named strategy turns on collaborative caching: placement
        # drives wrapper assignment and a content directory tracks who
        # holds what for neighbor-hit forwarding.
        if strategy is not None:
            provider_kwargs.setdefault("strategy", make_strategy(strategy))
            provider_kwargs.setdefault(
                "directory",
                ContentDirectory(self.sim, gossip_interval=gossip_interval))
        self.provider = ContentProvider(
            "news.example", origin_host, self.city.network, self.catalog,
            **provider_kwargs)
        self.peers: List[NoCdnPeerService] = []
        self.hpops: List[Hpop] = []
        services = peer_services or [NoCdnPeerService()
                                     for _ in range(num_peers)]
        for i, service in enumerate(services):
            home = self.city.neighborhoods[0].homes[i]
            household = Household(name=f"h{i}",
                                  users=[User(f"u{i}", "pw")])
            hpop = Hpop(home.hpop_host, self.city.network, household)
            hpop.install(service)
            hpop.start()
            service.sign_up(self.provider)
            self.peers.append(service)
            self.hpops.append(hpop)
        # Clients live in homes beyond the peers'.
        self.client_device = (
            self.city.neighborhoods[0].homes[len(services)].devices[0])
        self.loader = PageLoader(self.client_device, self.city.network)

    def load_page(self, url: str = "/page0", loader: Optional[PageLoader] = None):
        results, errors = [], []
        (loader or self.loader).load(self.provider, url, results.append,
                                     errors.append)
        self.sim.run()
        assert not errors, f"load errors: {errors}"
        assert len(results) == 1
        return results[0]
