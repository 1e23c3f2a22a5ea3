"""Shared harness for NoCDN end-to-end tests."""

from __future__ import annotations

from typing import List, Optional

from repro.http.content import ContentCatalog
from repro.nocdn.origin import ContentProvider
from repro.nocdn.peer import NoCdnPeerService
from repro.workloads import nocdn
from repro.workloads.web import make_catalog


class NoCdnWorld(nocdn.NoCdnWorld):
    """The tests' world: peers in the first homes, then one client, and
    an origin and an edge site. Keywords beyond these are the provider's
    (``trust_penalty=0.5``), given to it through its factory."""

    def __init__(
        self,
        num_peers: int = 3,
        seed: int = 11,
        homes: int = 8,
        peer_services: Optional[List[NoCdnPeerService]] = None,
        catalog: Optional[ContentCatalog] = None,
        strategy: Optional[str] = None,
        gossip_interval: float = 0.0,
        **provider_options,
    ):
        services = peer_services or [NoCdnPeerService()
                                     for _ in range(num_peers)]

        def provider(world):
            return ContentProvider(
                "news.example", world.origin, world.city.network,
                world.catalog, strategy=world.strategy,
                directory=world.directory, **provider_options)

        super().__init__(
            seed, homes, lambda _sim: catalog or make_catalog(),
            server_sites={"origin": 1, "edge": 1}, strategy=strategy,
            gossip_interval=gossip_interval, provider=provider,
            peers=len(services), services=lambda i: [services[i]])
        self.client_device = self.clients[0]
        self.loader = self.loaders[0]
