"""A3 (ablation) — why ultrabroadband: HPoP services on legacy vs FTTH access.

The paper's whole premise (SI): home-centered services were impractical
because "providing ubiquitous access to information stored in our home
is problematic given the capacity of today's home networks". This
ablation runs the same HPoP workloads over the legacy asymmetric access
profile (25/5 Mbps) and over symmetric gigabit fiber, quantifying why
the upload direction is the killer.
"""

from repro.attic.service import DataAtticService
from repro.hpop.core import Household, Hpop, User
from repro.http.client import HttpClient
from repro.http.messages import HttpRequest
from repro.metrics.report import ExperimentReport
from repro.net.topology import AccessProfile, build_city
from repro.sim.engine import Simulator
from repro.util.units import mib
from repro.webdav.server import basic_auth

PHOTO_ALBUM = mib(50)   # share a photo album from the attic
DOC = mib(2)            # fetch a document remotely


def build(access, seed):
    sim = Simulator(seed=seed)
    city = build_city(sim, homes_per_neighborhood=2, access=access,
                      server_sites={"remote": 1})
    home = city.neighborhoods[0].homes[0]
    hpop = Hpop(home.hpop_host, city.network,
                Household(name="h", users=[User("ann", "pw")]))
    attic = hpop.install(DataAtticService())
    hpop.start()
    return sim, city, hpop, attic


def remote_fetch_time(access, size, seed):
    """Time for a remote host to download ``size`` from the attic."""
    sim, city, hpop, attic = build(access, seed)
    attic.dav.tree.put("/ann/blob", size=size)
    remote = city.server_sites["remote"].servers[0]
    client = HttpClient(remote, city.network)
    done = []
    client.request(hpop.host,
                   HttpRequest("GET", "/attic/ann/blob",
                               headers=basic_auth("ann", "pw")),
                   lambda resp, stats: done.append(stats.total_time),
                   port=443, timeout=600.0)
    sim.run()
    assert done, "fetch never completed"
    return done[0]


def experiment():
    report = ExperimentReport(
        "A3", "HPoP serving over legacy broadband vs ultrabroadband",
        columns=("workload", "legacy 25/5 Mbps", "FTTH 1 Gbps", "speedup"))
    legacy = AccessProfile.legacy_broadband()
    fiber = AccessProfile.ultrabroadband()

    t_doc_legacy = remote_fetch_time(legacy, DOC, seed=300)
    t_doc_fiber = remote_fetch_time(fiber, DOC, seed=301)
    report.add_row("remote 2 MiB document fetch (s)", t_doc_legacy,
                   t_doc_fiber, t_doc_legacy / t_doc_fiber)

    t_album_legacy = remote_fetch_time(legacy, PHOTO_ALBUM, seed=302)
    t_album_fiber = remote_fetch_time(fiber, PHOTO_ALBUM, seed=303)
    report.add_row("remote 50 MiB album fetch (s)", t_album_legacy,
                   t_album_fiber, t_album_legacy / t_album_fiber)

    report.check(
        "serving from home is upload-bound on legacy access",
        "50 MiB at 5 Mbps is ~84 s of pure serialization",
        f"{t_album_legacy:.1f} s measured",
        t_album_legacy > 60)
    report.check(
        "ultrabroadband makes home serving interactive",
        "album fetch drops to roughly a second (>= 50x speedup)",
        f"{t_album_fiber:.2f} s ({t_album_legacy / t_album_fiber:.0f}x)",
        t_album_fiber < 3 and t_album_legacy / t_album_fiber > 50)
    report.check(
        "even small documents feel the asymmetry",
        "2 MiB fetch >= 3x faster on fiber",
        f"{t_doc_legacy:.2f} -> {t_doc_fiber:.2f} s",
        t_doc_legacy > 3 * t_doc_fiber)
    report.note(
        "Legacy access is asymmetric (25 down / 5 up); serving *from* "
        "the home rides the 5 Mbps uplink — exactly the constraint the "
        "paper says FTTH removes.")
    return report
