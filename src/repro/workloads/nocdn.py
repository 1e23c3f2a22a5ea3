"""The NoCDN world: one seeded city whose HPoPs serve a provider's pages.

Paper §IV-B turns on one act: a residential HPoP installs the NoCDN
peer and signs up with a content provider. :class:`NoCdnWorld` is the
one place that act, and the city, catalog and provider around it, is
written. The chaos world, the ``nocdn_fleet`` study cell, benches E6,
E7, A1 and A2, ``examples/nocdn_site.py`` and the NoCDN tests are calls
of it; each reshapes it through parameters and factories, never with a
copy.
"""

import random
from typing import Callable, Dict, List, Optional

from repro.hpop.core import Household, Hpop, HpopService, User
from repro.http.client import PageFetcher
from repro.http.content import ContentCatalog
from repro.net.network import Network
from repro.net.node import Host
from repro.net.topology import build_city, hierarchical_path_provider
from repro.nocdn.directory import ContentDirectory
from repro.nocdn.loader import PageLoader, PageLoadResult
from repro.nocdn.origin import ContentProvider
from repro.nocdn.peer import NoCdnPeerService
from repro.nocdn.strategy import make_strategy
from repro.sim.engine import Simulator
from repro.workloads.web import CatalogSpec, generate_catalog


def seeded_catalog(pages: int, seed: int) -> Callable[[Simulator],
                                                      ContentCatalog]:
    """A catalog factory: ``pages`` generated pages drawn from
    ``random.Random(seed)``, a stream of the caller's own."""
    return lambda _sim: generate_catalog(CatalogSpec(num_pages=pages),
                                         random.Random(seed))


def news_site(world: "NoCdnWorld") -> ContentProvider:
    """The default provider: ``news.example`` on the city's origin
    server, running the world's strategy and directory."""
    return ContentProvider("news.example", world.origin, world.city.network,
                           world.catalog, strategy=world.strategy,
                           directory=world.directory)


def one_peer(_index: int) -> List[HpopService]:
    """The default services of a peer home: a NoCDN peer alone."""
    return [NoCdnPeerService()]


class NoCdnWorld:
    """A city of HPoP peers signed up with one provider, and client loaders.

    Built in this order: the simulator and city; the catalog
    (``catalog(sim)``); the content directory and the placement
    strategy, when ``strategy`` names one; the provider
    (``provider(world)``, which sees everything built so far); for each
    peer home an :class:`Hpop` with ``services(i)`` installed in order,
    started, and its NoCDN peer (the last of those services) signed up;
    and one ``loader(device, network)`` per client device.

    Layout: with ``peers`` set, the first ``peers`` homes of
    neighbourhood 0 host peers and the ``clients`` homes after them
    host the clients. With ``peers=None`` (the fleet shape) every
    neighbourhood's first home hosts its client and every other home a
    peer. ``with_peers=False`` keeps the layout but builds no HPoP: the
    origin-only and CDN baselines load from the same homes.
    """

    def __init__(
        self,
        seed: int,
        homes: int,
        catalog: Callable[[Simulator], ContentCatalog],
        *,
        neighborhoods: int = 1,
        devices_per_home: int = 2,
        server_sites: Optional[Dict[str, int]] = None,
        tree_routing: bool = False,
        strategy: Optional[str] = None,
        directory: bool = True,
        gossip_interval: float = 0.0,
        provider: Callable[["NoCdnWorld"], ContentProvider] = news_site,
        peers: Optional[int] = None,
        services: Callable[[int], List[HpopService]] = one_peer,
        with_peers: bool = True,
        clients: int = 1,
        loader: Callable[[Host, Network], PageFetcher] = PageLoader,
    ) -> None:
        self.sim = Simulator(seed=seed)
        self.city = city = build_city(
            self.sim, num_neighborhoods=neighborhoods,
            homes_per_neighborhood=homes, devices_per_home=devices_per_home,
            server_sites=server_sites)
        if tree_routing:
            # The generic path search costs tens of ms per endpoint pair
            # at 10k homes; the tree walk composes the same path.
            city.network.path_provider = hierarchical_path_provider(city)
        self.catalog = catalog(self.sim)
        # A named strategy turns on collaborative caching: placement
        # drives wrapper assignment and, unless ``directory`` is off
        # (the naive per-peer cache), a content directory tracks who
        # holds what for neighbor-hit forwarding.
        self.directory: Optional[ContentDirectory] = None
        self.strategy = None
        if strategy is not None:
            if directory:
                self.directory = ContentDirectory(
                    self.sim, gossip_interval=gossip_interval)
            self.strategy = make_strategy(strategy)
        self.provider = provider(self)
        if peers is None:
            peer_homes = [home for nbhd in city.neighborhoods
                          for home in nbhd.homes[1:]]
            client_homes = [nbhd.homes[0] for nbhd in city.neighborhoods]
        else:
            row = city.neighborhoods[0].homes
            peer_homes, client_homes = row[:peers], row[peers:peers + clients]
        self.hpops: List[Hpop] = []
        self.peers: List[NoCdnPeerService] = []
        for i, home in enumerate(peer_homes if with_peers else ()):
            hpop = Hpop(home.hpop_host, city.network,
                        Household(name=f"h{i}", users=[User("u", "p")]))
            installed = services(i)
            for service in installed:
                hpop.install(service)
            hpop.start()
            installed[-1].sign_up(self.provider)
            self.hpops.append(hpop)
            self.peers.append(installed[-1])
        self.clients = [home.devices[0] for home in client_homes]
        self.loaders = [loader(device, city.network)
                        for device in self.clients]

    @property
    def origin(self) -> Host:
        """The first server of the city's ``origin`` site."""
        return self.city.server_sites["origin"].servers[0]

    def load_page(self, url: str = "/page0",
                  loader: Optional[PageLoader] = None) -> PageLoadResult:
        """Load ``url`` with ``loader`` (the first client's by default),
        run the simulation until it is idle, and return the result; a
        failed load raises its error."""
        results, errors = [], []
        (loader or self.loaders[0]).load(self.provider, url, results.append,
                                         errors.append)
        self.sim.run()
        if errors:
            raise errors[0]
        [result] = results
        return result
