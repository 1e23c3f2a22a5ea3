"""A1 (ablation) — NoCDN peer-selection policies (SIV-B "Peer Selection").

The paper calls peer selection "an open problem"; this ablation
quantifies the candidate policies the library ships: uniform random,
single-peer, proximity, load-aware spread, and rendezvous affinity.
Metrics: page-load time, origin fill traffic (cache affinity), and
load balance across peers.
"""

import os
import random

from repro.metrics.report import ExperimentReport
from repro.nocdn.origin import ContentProvider
from repro.nocdn.selection import (
    AffinitySelection,
    LoadAwareSelection,
    ProximitySelection,
    RandomSelection,
    SingleRandomPeer,
)
from repro.util.stats import mean
from repro.workloads.nocdn import NoCdnWorld, seeded_catalog
from repro.workloads.web import ZipfPagePopularity

NUM_PEERS = 8
NUM_LOADS = 40


def run_policy(policy, seed):
    world = NoCdnWorld(
        seed, NUM_PEERS + 2, seeded_catalog(10, seed),
        provider=lambda w: ContentProvider(
            "site", w.origin, w.city.network, w.catalog, selection=policy),
        peers=NUM_PEERS)
    sim, catalog, peers = world.sim, world.catalog, world.peers
    loader, provider = world.loaders[0], world.provider
    # REPRO_TRACE=<path> exports a trace of each policy's run, named per
    # policy (e.g. a1.jsonl -> a1-affinity.jsonl), for trace_report.py.
    trace_out = os.environ.get("REPRO_TRACE")
    if trace_out:
        sim.enable_tracing()
    pop = ZipfPagePopularity(catalog, alpha=0.9, rng=random.Random(seed + 1))
    urls = pop.draw_many(NUM_LOADS)
    results = []

    def chain(i=0):
        if i >= len(urls):
            return
        loader.load(provider, urls[i],
                    lambda r: (results.append(r), chain(i + 1)))

    chain()
    sim.run()
    if trace_out:
        root, ext = os.path.splitext(trace_out)
        sim.tracer.export_jsonl(f"{root}-{policy.name}{ext or '.jsonl'}")
    plt = mean([r.duration * 1e3 for r in results])
    fills = sum(p.origin_fills for p in peers)
    served = sorted(p.bytes_served for p in peers)
    total_served = sum(served) or 1
    # Load-balance metric: share of bytes on the busiest peer.
    top_share = served[-1] / total_served
    return plt, fills, top_share


def experiment():
    report = ExperimentReport(
        "A1", "NoCDN selection-policy ablation (40 Zipf loads, 8 peers)",
        columns=("policy", "mean PLT (ms)", "origin fills",
                 "busiest peer's byte share"))
    outcomes = {}
    for policy in (RandomSelection(), SingleRandomPeer(),
                   ProximitySelection(), LoadAwareSelection(),
                   AffinitySelection(spread=2)):
        plt, fills, top = run_policy(policy, seed=100)
        outcomes[policy.name] = (plt, fills, top)
        report.add_row(policy.name, plt, fills, top)

    spreading = {name: v for name, v in outcomes.items()
                 if name in ("random", "load-aware", "affinity")}
    report.check(
        "affinity maximizes cache efficiency among load-spreading policies",
        "fewest origin fills of {random, load-aware, affinity} "
        "(single/proximity trivially minimize fills by using one peer)",
        ", ".join(f"{n}={v[1]}" for n, v in spreading.items()),
        outcomes["affinity"][1] <= min(v[1] for v in spreading.values()))
    report.check(
        "full random pays for affinity-free assignment with origin fills",
        "random fills > 1.5x affinity fills",
        f"{outcomes['random'][1]} vs {outcomes['affinity'][1]}",
        outcomes["random"][1] > 1.5 * outcomes["affinity"][1])
    report.check(
        "proximity/single concentrate load on one peer",
        "busiest-peer share ~1.0 for proximity, lower for load-aware",
        f"proximity {outcomes['proximity'][2]:.2f}, "
        f"load-aware {outcomes['load-aware'][2]:.2f}",
        outcomes["proximity"][2] > 0.95
        and outcomes["load-aware"][2] < 0.5)
    report.note(
        "The dimensions trade off: affinity wins cache efficiency, "
        "load-aware wins balance, proximity wins RTT, random wins "
        "collusion-resistance. AffinitySelection(spread=2) is the "
        "library default compromise.")
    return report
