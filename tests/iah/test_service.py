"""Internet@home service end-to-end tests."""

import pytest

from repro.attic.service import DataAtticService
from repro.hpop.core import Household, Hpop, User
from repro.http.content import ContentCatalog, WebObject, WebPage
from repro.iah.browser import HomeBrowser
from repro.iah.deepweb import PropertyTrigger
from repro.iah.service import (UPSTREAM_TIMEOUT, CoopGroup,
                               InternetAtHomeService)
from repro.iah.smoothing import DemandSmoother
from repro.iah.web import Website
from repro.net.topology import build_city
from repro.sim.engine import Simulator


def make_site_catalog(num_pages=3, objects_per_page=3, object_size=40_000):
    catalog = ContentCatalog()
    for p in range(num_pages):
        container = WebObject(f"page{p}.html", 15_000)
        embedded = tuple(WebObject(f"p{p}-obj{i}.bin", object_size)
                         for i in range(objects_per_page))
        catalog.add_page(WebPage(url=f"/page{p}", container=container,
                                 embedded=embedded))
    # Deep-web content.
    catalog.add_object(WebObject("private/feed.json", 8_000))
    catalog.add_object(WebObject("quote/AAPL", 2_000))
    catalog.add_object(WebObject("quote/MSFT", 2_000))
    return catalog


def build(num_homes=3, seed=16, with_attic=False, **svc_kwargs):
    sim = Simulator(seed=seed)
    city = build_city(sim, homes_per_neighborhood=max(num_homes, 2),
                      server_sites={"web": 1})
    site = Website("news.example", city.server_sites["web"].servers[0],
                   city.network, make_site_catalog(),
                   credentials={"ann": "pw"})
    services, hpops = [], []
    for i in range(num_homes):
        home = city.neighborhoods[0].homes[i]
        hpop = Hpop(home.hpop_host, city.network,
                    Household(name=f"h{i}", users=[User("ann", "pw")]))
        if with_attic:
            hpop.install(DataAtticService())
        svc = hpop.install(InternetAtHomeService(gather_interval=0,
                                                 **svc_kwargs))
        svc.register_site(site)
        hpop.start()
        services.append(svc)
        hpops.append(hpop)
    return sim, city, site, services, hpops


def visit_and_learn(svc, site, urls):
    """Record visits and teach page structure (as browsing would)."""
    for url in urls:
        svc.record_visit(site.name, url)
        svc.learn_page(site.name, url, site.catalog.page(url))


class TestGathering:
    def test_gather_fills_cache(self):
        sim, _city, site, services, _hpops = build(num_homes=1,
                                                   aggressiveness=1.0)
        svc = services[0]
        visit_and_learn(svc, site, ["/page0", "/page1"])
        done = []
        svc.gather(lambda: done.append(sim.now))
        sim.run()
        assert done
        assert svc.stats.full_fetches == 8  # 2 pages x (1 container + 3 objs)
        assert svc.cache.contains("news.example|page0.html")
        assert svc.stats.upstream_bytes > 0

    def test_aggressiveness_limits_scope(self):
        sim, _city, site, services, _hpops = build(num_homes=1,
                                                   aggressiveness=0.3)
        svc = services[0]
        # page0 visited most; page1 and page2 once.
        visit_and_learn(svc, site, ["/page0", "/page0", "/page0",
                                    "/page1", "/page2"])
        svc.gather()
        sim.run()
        # Only the top ~1/3 of pages (page0) is gathered.
        assert svc.cache.contains("news.example|page0.html")
        assert not svc.cache.contains("news.example|page1.html")

    def test_second_gather_revalidates_not_refetches(self):
        sim, _city, site, services, _hpops = build(num_homes=1,
                                                   aggressiveness=1.0)
        svc = services[0]
        visit_and_learn(svc, site, ["/page0"])
        svc.gather()
        sim.run()
        fetched = svc.stats.full_fetches
        bytes_first = svc.stats.upstream_bytes
        # Let cached entries expire (site ttl = 300).
        sim.run_until(sim.now + 400)
        svc.gather()
        sim.run()
        assert svc.stats.full_fetches == fetched  # no re-downloads
        assert svc.stats.revalidated_unchanged == 4
        # Revalidation cost a fraction of the original transfer.
        assert svc.stats.upstream_bytes - bytes_first < bytes_first / 2

    def test_changed_object_refetched_on_revalidation(self):
        sim, _city, site, services, _hpops = build(num_homes=1,
                                                   aggressiveness=1.0)
        svc = services[0]
        visit_and_learn(svc, site, ["/page0"])
        svc.gather()
        sim.run()
        site.update_object("p0-obj0.bin")
        visit_and_learn(svc, site, ["/page0"])  # refresh meta knowledge
        sim.run_until(sim.now + 400)
        svc.gather()
        sim.run()
        _, entry = svc.cache.lookup("news.example|p0-obj0.bin", sim.now)
        assert entry.obj.version == 2

    def test_unknown_page_meta_fetched_then_gathered(self):
        sim, _city, site, services, _hpops = build(num_homes=1,
                                                   aggressiveness=1.0)
        svc = services[0]
        svc.record_visit(site.name, "/page0")  # no learn_page
        svc.gather()
        sim.run()
        # First round only fetched the metadata.
        assert not svc.cache.contains("news.example|page0.html")
        svc.gather()
        sim.run()
        assert svc.cache.contains("news.example|page0.html")

    def test_gather_through_smoother(self):
        sim, _city, site, services, _hpops = build(num_homes=1,
                                                   aggressiveness=1.0)
        svc = services[0]
        smoother = DemandSmoother(sim, rate_bytes_per_sec=20_000,
                                  burst_bytes=40_000)
        svc.smoother = smoother
        visit_and_learn(svc, site, ["/page0", "/page1"])
        svc.gather()
        sim.run_until(sim.now + 30)
        assert smoother.jobs_released == 8
        # Rate-limited: releases stretched over multiple seconds.
        assert svc.cache.contains("news.example|page0.html")


class TestDeepWebAndTriggers:
    def test_deep_content_requires_vault(self):
        sim, _city, site, services, _hpops = build(num_homes=1)
        svc = services[0]
        fetched = []
        svc._fetch_upstream("news.example", "private/feed.json", None,
                            lambda resp: fetched.append(resp))
        sim.run()
        assert fetched[0].status == 401  # no credentials
        svc.vault.store("news.example", "ann", "pw")
        svc._fetch_upstream("news.example", "private/feed.json", None,
                            lambda resp: fetched.append(resp))
        sim.run()
        assert fetched[1].ok
        assert svc.cache.contains("news.example|private/feed.json")

    def test_attic_trigger_gathers_quotes(self):
        sim, _city, site, services, hpops = build(num_homes=1,
                                                  with_attic=True,
                                                  aggressiveness=1.0)
        svc = services[0]
        attic = hpops[0].service("attic")
        attic.dav.tree.put("/ann/taxes.pdf", size=1000)
        attic.dav.tree.lookup("/ann/taxes.pdf").properties["tickers"] = \
            "AAPL,MSFT"
        svc.add_trigger(PropertyTrigger("tickers", "news.example",
                                        "quote/{}"))
        svc.gather()
        sim.run()
        assert svc.cache.contains("news.example|quote/AAPL")
        assert svc.cache.contains("news.example|quote/MSFT")


class TestDeviceServing:
    def test_hit_served_fast_miss_served_slow(self):
        sim, city, site, services, hpops = build(num_homes=1,
                                                 aggressiveness=1.0)
        svc = services[0]
        visit_and_learn(svc, site, ["/page0"])
        svc.gather()
        sim.run()
        device = city.neighborhoods[0].homes[0].devices[0]
        browser = HomeBrowser(device, city.network)
        results = []
        browser.load_via_hpop(hpops[0].host, site, "/page0", results.append)
        sim.run()
        warm = results[0]
        assert warm.hit_rate == 1.0
        browser.load_via_hpop(hpops[0].host, site, "/page2", results.append)
        sim.run()
        cold = results[1]
        assert cold.hit_rate == 0.0
        assert warm.duration < cold.duration

    def test_hpop_beats_origin_when_warm(self):
        sim, city, site, services, hpops = build(num_homes=1,
                                                 aggressiveness=1.0)
        svc = services[0]
        visit_and_learn(svc, site, ["/page0"])
        svc.gather()
        sim.run()
        device = city.neighborhoods[0].homes[0].devices[0]
        browser = HomeBrowser(device, city.network)
        results = {}
        browser.load_via_hpop(hpops[0].host, site, "/page0",
                              lambda r: results.setdefault("hpop", r))
        sim.run()
        browser.load_via_origin(site, "/page0",
                                lambda r: results.setdefault("origin", r))
        sim.run()
        assert results["hpop"].duration < results["origin"].duration

    def test_visit_recorded_via_route(self):
        sim, city, site, services, hpops = build(num_homes=1)
        device = city.neighborhoods[0].homes[0].devices[0]
        browser = HomeBrowser(device, city.network)
        browser.load_via_hpop(hpops[0].host, site, "/page1", lambda r: None)
        sim.run()
        assert services[0].history.count_for("news.example", "/page1") == 1

    @pytest.mark.parametrize("via", ["hpop", "origin"])
    def test_an_unanswered_object_is_booked_as_a_miss(self, via):
        sim, city, site, _services, hpops = build(num_homes=1)
        # The origin never answers one of /page0's four objects.
        site.server.route_async(f"{site.objects_prefix}/p0-obj1.bin",
                                lambda _request, _respond: None,
                                virtual_host=site.name)
        browser = HomeBrowser(city.neighborhoods[0].homes[0].devices[0],
                              city.network)
        # The browser gives up before the HPoP's upstream does, so its
        # exchange fails on either path instead of ending in a 504.
        browser.client.timeout = UPSTREAM_TIMEOUT / 2
        results = []
        if via == "hpop":
            browser.load_via_hpop(hpops[0].host, site, "/page0",
                                  results.append)
        else:
            browser.load_via_origin(site, "/page0", results.append)
        sim.run()
        [result] = results
        assert (result.cache_hits, result.lateral_hits,
                result.cache_misses) == (0, 0, result.object_count)
        assert result.bytes_total == 15_000 + 2 * 40_000


class TestCooperativeCache:
    def test_gathering_partitioned(self):
        sim, _city, site, services, _hpops = build(num_homes=3,
                                                   aggressiveness=1.0)
        group = CoopGroup()
        for svc in services:
            group.join(svc)
            visit_and_learn(svc, site, ["/page0", "/page1", "/page2"])
        for svc in services:
            svc.gather()
        sim.run()
        total_fetches = sum(s.stats.full_fetches for s in services)
        # Without the group each home fetches all 12 objects: 36 fetches.
        # Partitioned: each object fetched exactly once.
        assert total_fetches == 12

    def test_lateral_fetch_on_miss(self):
        sim, city, site, services, hpops = build(num_homes=2,
                                                 aggressiveness=1.0)
        group = CoopGroup()
        for svc in services:
            group.join(svc)
            visit_and_learn(svc, site, ["/page0"])
        for svc in services:
            svc.gather()
        sim.run()
        device = city.neighborhoods[0].homes[0].devices[0]
        browser = HomeBrowser(device, city.network)
        results = []
        browser.load_via_hpop(hpops[0].host, site, "/page0", results.append)
        sim.run()
        result = results[0]
        # Every object served from home cache or a neighbor, none from WAN.
        assert result.cache_hits + result.lateral_hits == result.object_count
        if result.lateral_hits:
            assert any(s.stats.lateral_served > 0 for s in services)

    def test_dead_member_reassigns_responsibility(self):
        sim, _city, site, services, hpops = build(num_homes=3,
                                                  aggressiveness=1.0)
        group = CoopGroup()
        for svc in services:
            group.join(svc)
        owner_before = group.responsible_for("news.example", "page0.html")
        owner_before.hpop.shutdown()
        owner_after = group.responsible_for("news.example", "page0.html")
        assert owner_after is not owner_before
        assert owner_after is not None

    def test_double_join_rejected(self):
        _sim, _city, _site, services, _hpops = build(num_homes=1)
        group = CoopGroup()
        group.join(services[0])
        with pytest.raises(ValueError):
            group.join(services[0])

    def test_leave(self):
        _sim, _city, _site, services, _hpops = build(num_homes=2)
        group = CoopGroup()
        group.join(services[0])
        group.join(services[1])
        group.leave(services[0])
        assert services[0].group is None
        assert group.responsible_for("s", "o") is services[1]
