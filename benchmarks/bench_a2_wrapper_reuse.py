"""A2 (ablation) — wrapper-page reuse (SIV-B footnote).

"depending on the peer selection policies and billing models employed
by the origin site, even the wrapper page may be reused among users
and/or allowed to be cached by the user for a certain time."

Per-client wrappers maximize mapping randomness (collusion resistance);
reused wrappers cut the origin's dynamic-generation work. This ablation
quantifies the trade.
"""

from repro.metrics.report import ExperimentReport
from repro.nocdn.origin import ContentProvider
from repro.util.stats import mean
from repro.workloads.nocdn import NoCdnWorld, seeded_catalog

NUM_PEERS = 4
NUM_CLIENTS = 12
WRAPPER_THINK = 0.01  # dynamic generation cost per wrapper


def run(reuse_ttl, seed):
    world = NoCdnWorld(
        seed, NUM_PEERS + NUM_CLIENTS, seeded_catalog(2, seed),
        provider=lambda w: ContentProvider(
            "site", w.origin, w.city.network, w.catalog,
            wrapper_reuse_ttl=reuse_ttl, origin_think_time=WRAPPER_THINK),
        peers=NUM_PEERS, clients=NUM_CLIENTS)
    sim, provider, peers = world.sim, world.provider, world.peers
    url = world.catalog.pages()[0].url
    results = []
    for loader in world.loaders:
        loader.load(provider, url, results.append)
    sim.run()
    for peer in peers:
        peer.flush_usage()
    sim.run()
    plt = mean([r.duration * 1e3 for r in results])
    return (plt, provider.wrappers_issued, provider.wrappers_reused,
            provider.audit)


def experiment():
    report = ExperimentReport(
        "A2", "Wrapper reuse: per-client generation vs shared wrappers",
        columns=("mode", "mean PLT (ms)", "wrappers generated",
                 "wrappers reused", "records rejected"))
    plt_per, issued_per, reused_per, audit_per = run(None, seed=200)
    report.add_row("per-client wrappers", plt_per, issued_per, reused_per,
                   audit_per.rejected_total)
    plt_shared, issued_shared, reused_shared, audit_shared = run(60.0,
                                                                 seed=201)
    report.add_row("shared (TTL 60 s)", plt_shared, issued_shared,
                   reused_shared, audit_shared.rejected_total)

    report.check(
        "reuse collapses the origin's wrapper-generation load",
        f"{NUM_CLIENTS} clients -> 1 generated wrapper instead of "
        f"{NUM_CLIENTS}",
        f"{issued_shared} generated, {reused_shared} reused "
        f"(vs {issued_per} generated without reuse)",
        issued_shared == 1 and reused_shared == NUM_CLIENTS - 1
        and issued_per == NUM_CLIENTS)
    report.check(
        "accounting integrity survives sharing",
        "extended caps mean no over-cap or replay rejections",
        f"{audit_shared.rejected_total} rejections, "
        f"{audit_shared.accepted_records} accepted",
        audit_shared.rejected_total == 0
        and audit_shared.accepted_records > 0)
    report.check(
        "shared wrappers do not hurt page-load time",
        "PLT within 15% of per-client mode",
        f"{plt_shared:.0f} vs {plt_per:.0f} ms",
        plt_shared < plt_per * 1.15)
    report.note(
        "The cost of reuse is a predictable client->peer mapping during "
        "the TTL (weaker collusion mitigation) — the paper's 'depending "
        "on billing models' caveat.")
    return report
