"""Integration: flows crossing multiple subsystems."""

import pytest

from repro.attic.driver import AtticDriver
from repro.attic.service import DataAtticService
from repro.hpop.core import HPOP_PORT, Household, Hpop, User
from repro.iah.deepweb import PropertyTrigger
from repro.iah.service import InternetAtHomeService
from repro.iah.web import Website
from repro.nat.devices import NatChain, NatDevice, NatType, make_cgn
from repro.nat.traversal import ReachabilityManager, ReachabilityMethod, \
    StunServer, TurnServer
from repro.net.address import Address
from repro.net.topology import build_city
from repro.nocdn.origin import ContentProvider
from repro.sim.engine import Simulator
from repro.workloads.nocdn import NoCdnWorld, seeded_catalog


class TestAtticThroughNat:
    """SIII + SIV-A: an external app reaches the attic behind a CGN."""

    def build(self):
        sim = Simulator(seed=22)
        city = build_city(sim, homes_per_neighborhood=2,
                          server_sites={"infra": 1, "saas": 1})
        infra = city.server_sites["infra"].servers[0]
        manager = ReachabilityManager(city.network,
                                      StunServer(city.network, infra),
                                      TurnServer(city.network, infra))
        home = city.neighborhoods[0].homes[0]
        hpop = Hpop(home.hpop_host, city.network,
                    Household(name="h", users=[User("ann", "pw")]),
                    reachability=manager)
        attic = hpop.install(DataAtticService())
        # Behind a symmetric CGN: only a relay works.
        manager.register_chain(home.hpop_host, NatChain([
            NatDevice("home-nat", Address.parse("100.64.5.1")),
            make_cgn("cgn", Address.parse("100.64.9.5")),
        ]))
        reports = []
        hpop.start(on_reachable=reports.append)
        sim.run()
        return sim, city, manager, hpop, attic, reports[0]

    def test_relayed_driver_round_trip(self):
        sim, city, manager, hpop, attic, report = self.build()
        assert report.method is ReachabilityMethod.RELAY
        grant = attic.issue_grant("ann", "saas", sub_path="docs")
        saas = city.server_sites["saas"].servers[0]
        manager.register_chain(saas, NatChain())
        relay_path = manager.data_path(saas, hpop.host)
        driver = AtticDriver(saas, city.network, attic.qr_for(grant),
                             via_path=relay_path)
        opened, closed = [], []
        driver.open("report.doc", "w", opened.append,
                    create_size=50_000, create_payload="draft")
        sim.run()
        assert len(opened) == 1
        driver.close(opened[0], lambda: closed.append(1))
        sim.run()
        assert closed == [1]
        assert attic.dav.tree.exists("/ann/docs/report.doc")

    def test_relayed_access_slower_than_direct_would_be(self):
        sim, city, manager, hpop, attic, _report = self.build()
        saas = city.server_sites["saas"].servers[0]
        manager.register_chain(saas, NatChain())
        relayed = manager.data_path(saas, hpop.host)
        direct = city.network.path_between(saas, hpop.host)
        assert relayed.rtt > direct.rtt


class TestAtticDrivesInternetAtHome:
    """SIV-D "Leveraging the Data Attic": attic contents trigger gathering."""

    def test_tax_document_keeps_quotes_fresh(self):
        sim = Simulator(seed=23)
        city = build_city(sim, homes_per_neighborhood=2,
                          server_sites={"fin": 1})
        from repro.http.content import ContentCatalog, WebObject
        catalog = ContentCatalog()
        for symbol in ("AAPL", "MSFT", "NVDA"):
            catalog.add_object(WebObject(f"quote/{symbol}", 2_000))
        site = Website("fin.example", city.server_sites["fin"].servers[0],
                       city.network, catalog, object_ttl=60.0)
        home = city.neighborhoods[0].homes[0]
        hpop = Hpop(home.hpop_host, city.network,
                    Household(name="h", users=[User("ann", "pw")]))
        attic = hpop.install(DataAtticService())
        iah = hpop.install(InternetAtHomeService(gather_interval=0))
        iah.register_site(site)
        iah.add_trigger(PropertyTrigger("tickers", site.name, "quote/{}"))
        hpop.start()

        # The user files taxes into the attic; properties name two tickers.
        attic.dav.tree.put("/ann/taxes.pdf", size=90_000)
        attic.dav.tree.lookup("/ann/taxes.pdf").properties["tickers"] = \
            "AAPL, MSFT"
        iah.gather()
        sim.run()
        assert iah.cache.contains("fin.example|quote/AAPL")
        assert iah.cache.contains("fin.example|quote/MSFT")
        assert not iah.cache.contains("fin.example|quote/NVDA")

        # A new document adds a ticker; the next round picks it up.
        attic.dav.tree.put("/ann/brokerage.pdf", size=10_000)
        attic.dav.tree.lookup("/ann/brokerage.pdf").properties["tickers"] = \
            "NVDA"
        iah.gather()
        sim.run()
        assert iah.cache.contains("fin.example|quote/NVDA")


class TestNoCdnPeerChurn:
    """Peers die and return mid-service; readers never see broken pages."""

    def test_flash_crowd_with_peer_deaths(self):
        # Four peers; loaders[1:] are the clients in homes 5, 6 and 7.
        world = NoCdnWorld(
            24, 10, seeded_catalog(2, 24),
            provider=lambda w: ContentProvider(
                "site", w.origin, w.city.network, w.catalog),
            peers=4, clients=4)
        sim, provider, hpops = world.sim, world.provider, world.hpops
        loader, loader2, loader3 = world.loaders[1:]
        url = world.catalog.pages()[0].url
        page_size = world.catalog.pages()[0].total_size
        results = []
        loader.load(provider, url, results.append)
        sim.run()

        # Two peers die; the origin does not know yet.
        hpops[0].shutdown()
        hpops[1].shutdown()
        loader2.load(provider, url, results.append)
        sim.run()
        # Page still complete: dead-peer fetches failed over to the origin
        # (or landed on live peers).
        assert results[1].total_bytes >= page_size

        # They come back; service resumes cleanly.
        hpops[0].restart()
        hpops[1].restart()
        loader3.load(provider, url, results.append)
        sim.run()
        assert results[2].total_bytes >= page_size
        assert results[2].peer_failures == []
