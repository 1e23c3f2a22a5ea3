"""E11 — Internet@home: aggressiveness and freshness tradeoffs (SIV-D).

Claims reproduced:

- keeping a history-driven local copy turns WAN page loads into LAN
  loads: hit rate and user-perceived latency improve with the
  aggressiveness knob,
- the freshness-vs-load tradeoff: "we can decrease the number of
  requests going to the Internet by either reducing the scope of the
  content gathered ... or by decreasing the frequency of content
  pre-validation" — upstream bytes grow with scope (aggressiveness) and
  with re-validation frequency.
"""

import random

from repro.hpop.core import Household, Hpop, User
from repro.iah.browser import HomeBrowser
from repro.iah.service import InternetAtHomeService
from repro.iah.web import Website
from repro.metrics.report import ExperimentReport
from repro.net.topology import build_city
from repro.sim.engine import Simulator
from repro.util.stats import mean
from repro.workloads.web import CatalogSpec, ZipfPagePopularity, generate_catalog

NUM_PAGES = 12
VISITS_HISTORY = 40
VISITS_MEASURED = 30


def build(aggressiveness, seed=11):
    sim = Simulator(seed=seed)
    city = build_city(sim, homes_per_neighborhood=2,
                      server_sites={"web": 1})
    catalog = generate_catalog(CatalogSpec(num_pages=NUM_PAGES),
                               random.Random(seed))
    site = Website("news.example", city.server_sites["web"].servers[0],
                   city.network, catalog)
    home = city.neighborhoods[0].homes[0]
    hpop = Hpop(home.hpop_host, city.network,
                Household(name="h", users=[User("ann", "pw")]))
    svc = hpop.install(InternetAtHomeService(
        aggressiveness=aggressiveness, gather_interval=0))
    svc.register_site(site)
    hpop.start()
    return sim, city, site, svc, hpop, home


def run_point(aggressiveness):
    """Returns (hit_rate, mean latency ms, upstream MB) at one setting."""
    sim, city, site, svc, hpop, home = build(aggressiveness)
    pop = ZipfPagePopularity(site.catalog, alpha=0.9,
                             rng=random.Random(110))
    # Build history (and page-structure knowledge, as past browsing would).
    for url in pop.draw_many(VISITS_HISTORY):
        svc.record_visit(site.name, url)
        svc.learn_page(site.name, url, site.catalog.page(url))
    svc.gather()
    sim.run()
    gather_bytes = svc.stats.upstream_bytes

    browser = HomeBrowser(home.devices[0], city.network)
    results = []
    urls = ZipfPagePopularity(site.catalog, alpha=0.9,
                              rng=random.Random(111)).draw_many(VISITS_MEASURED)

    def chain(i=0):
        if i >= len(urls):
            return
        browser.load_via_hpop(hpop.host, site, urls[i],
                              lambda r: (results.append(r), chain(i + 1)),
                              record_visit=False)

    chain()
    sim.run()
    hits = sum(r.cache_hits for r in results)
    total = sum(r.object_count for r in results)
    latency = mean([r.duration * 1e3 for r in results])
    return hits / total, latency, svc.stats.upstream_bytes / 1e6, gather_bytes / 1e6


def freshness_sweep():
    """Upstream bytes per hour of keeping one page set fresh, by interval."""
    out = {}
    for interval in (60.0, 300.0, 900.0):
        sim, city, site, svc, hpop, home = build(1.0, seed=12)
        for url in ("/p0", "/p1", "/p2"):
            svc.record_visit(site.name, url)
            svc.learn_page(site.name, url, site.catalog.page(url))
        svc.gather()
        sim.run()
        baseline = svc.stats.upstream_bytes
        horizon = 3600.0
        t = sim.now
        while t < horizon:
            t += interval
            sim.run_until(t)
            svc.gather()
            sim.run()
        out[interval] = (svc.stats.upstream_bytes - baseline) / 1e6
    return out


def experiment():
    report = ExperimentReport(
        "E11", "Internet@home: hit rate / latency vs aggressiveness; "
               "freshness cost",
        columns=("aggressiveness", "object hit rate", "mean PLT (ms)",
                 "gather upstream (MB)"))
    points = {}
    for alpha in (0.0, 0.25, 0.5, 1.0):
        hit_rate, latency, _total_up, gather_mb = run_point(alpha)
        points[alpha] = (hit_rate, latency, gather_mb)
        report.add_row(alpha, hit_rate, latency, gather_mb)

    report.check(
        "hit rate rises with aggressiveness",
        "monotone increase, reaching >90% at full aggressiveness "
        "(demand misses also populate the cache, so the floor is not 0)",
        " -> ".join(f"{points[a][0]:.2f}" for a in (0.0, 0.25, 0.5, 1.0)),
        points[0.0][0] <= points[0.25][0] <= points[0.5][0] <= points[1.0][0]
        and points[1.0][0] > 0.9
        and points[1.0][0] > points[0.0][0] + 0.15)
    report.check(
        "user-perceived latency falls as the local copy widens",
        "PLT at aggressiveness 1.0 at most half of PLT at 0.0",
        f"{points[1.0][1]:.0f} ms vs {points[0.0][1]:.0f} ms",
        points[1.0][1] * 2 < points[0.0][1])
    report.check(
        "aggressiveness costs upstream volume (the scope knob)",
        "gather bytes grow with aggressiveness",
        " -> ".join(f"{points[a][2]:.1f}MB" for a in (0.25, 0.5, 1.0)),
        points[0.25][2] <= points[0.5][2] <= points[1.0][2]
        and points[1.0][2] > points[0.25][2])

    fresh = freshness_sweep()
    for interval, mb in sorted(fresh.items()):
        report.add_row(f"revalidate every {interval:.0f}s", "-", "-", mb)
    report.check(
        "re-validation frequency is the freshness knob",
        "hourly upstream bytes shrink as the gather interval grows",
        " -> ".join(f"{fresh[i]:.3f}MB" for i in (60.0, 300.0, 900.0)),
        fresh[60.0] > fresh[300.0] > fresh[900.0])
    report.note(
        "Unchanged objects re-validate via conditional GETs (304s), so "
        "freshness costs header bytes, not content bytes — the asymmetry "
        "that makes aggressive local copies affordable.")
    return report
