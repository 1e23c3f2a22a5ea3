"""Scenario registry for the study runner.

A *scenario* is a callable ``fn(seed, params, out_dir) -> dict`` that
runs one fully instrumented simulation and exports its artifacts into
``out_dir`` under the standard names (:data:`repro.obs.records.
ARTIFACTS`). The returned dict must contain only **deterministic**
facts about the run (load counts, fault counts, verdict booleans...) —
it is embedded in the merged summary, whose bytes must not depend on
scheduling.

Scenarios are addressed by name so a :class:`~repro.experiments.spec.
StudySpec` stays picklable and journal-friendly:

- built-ins registered here (``chaos``, ``fleet``, ``nocdn_fleet``), or
- a ``module:callable`` dotted path resolved at run time in the
  worker process (the module must be importable there — under the
  default fork start method workers inherit ``sys.path``).
"""

from __future__ import annotations

import importlib
import pathlib
from typing import Any, Callable, Dict, Mapping

from repro.obs.records import ARTIFACTS

ScenarioFn = Callable[[int, Mapping[str, Any], pathlib.Path],
                      Dict[str, Any]]


def run_chaos_cell(seed: int, params: Mapping[str, Any],
                   out_dir: pathlib.Path) -> Dict[str, Any]:
    """The chaos soak under full telemetry, as one study cell:
    :meth:`ChaosWorld.run` and then :meth:`ChaosWorld.export`.

    Params: ``fraction`` (churn fraction, default the acceptance
    scenario's 0.2), ``num_peers``, ``horizon`` (extra sim seconds
    after load scheduling), ``trace``/``profile`` (bool toggles for
    the optional artifacts; both default on — the profiler's wall
    numbers stay out of the summary contract), ``controller`` (attach
    the autonomous control plane and export ``control.jsonl``; off by
    default so existing study baselines keep their bytes),
    ``strategy`` (collaborative-caching strategy name; None keeps the
    classic per-peer world and its baseline bytes), ``sampling``
    (tail-sampling rate for the trace export; None keeps the classic
    ring buffer and its bytes), ``exemplars`` (link firing SLO alerts
    to their worst in-window request trace; off by default).
    """
    from repro.workloads.chaos import (CHURN_FRACTION, NUM_PEERS, RUN_FOR,
                                       ChaosWorld)

    fraction = float(params.get("fraction", CHURN_FRACTION))
    num_peers = int(params.get("num_peers", NUM_PEERS))
    horizon = float(params.get("horizon", RUN_FOR))
    with_trace = bool(params.get("trace", True))
    with_profile = bool(params.get("profile", True))
    with_controller = bool(params.get("controller", False))
    strategy = params.get("strategy")
    sampling = params.get("sampling")
    with_exemplars = bool(params.get("exemplars", False))

    world = ChaosWorld(seed, num_peers=num_peers, strategy=strategy)
    if with_trace:
        world.sim.enable_tracing(capacity=262144)
        if sampling is not None:
            world.enable_sampling(rate=float(sampling))
    if with_profile:
        world.sim.enable_profiling()
    world.enable_telemetry(exemplars=with_exemplars)
    if with_controller:
        world.enable_controller()
    plan, results, errors = world.run(fraction, run_for=horizon)
    # Exporting the trace flushes the tail sampler: its stats below are
    # final only after this.
    world.export(out_dir)

    facts = {
        "loads_ok": len(results),
        "load_errors": len(errors),
        "planned_faults": len(plan),
        "node_crashes": int(
            world.injector.metrics.counters["node_crashes"].value),
        "attic_redundant": bool(world.attic_fully_redundant()),
        "slo_transitions": len(world.slo_monitor.events),
    }
    if with_controller:
        ctl = world.controller
        facts.update({
            "control_decisions": len(ctl.decisions()),
            "control_actions": int(
                ctl.metrics.counters["actions_executed"].value),
            "alerts_converged": len(ctl.convergences()),
        })
    if world.sampler is not None:
        stats = world.sampler.stats_record()
        facts.update({
            "traces_seen": stats["traces_seen"],
            "traces_kept": stats["traces_kept"],
            "sampler_pins_missed": stats["pins_missed"],
        })
    if with_exemplars:
        firing = [e for e in world.slo_monitor.events
                  if e.get("state") == "firing"]
        facts["alerts_fired"] = len(firing)
        facts["alerts_with_exemplar"] = sum(
            1 for e in firing if e.get("exemplar_trace") is not None)
    return facts


def run_fleet_cell(seed: int, params: Mapping[str, Any],
                   out_dir: pathlib.Path) -> Dict[str, Any]:
    """A scraped background-traffic fleet (no faults, no SLOs).

    Params: ``homes``, ``focus_homes``, ``sim_seconds``, plus the
    fleet-observability ride-alongs (all default-off, keeping the
    classic export bytes): ``per_home_metrics`` folds every idle
    home's metric columns into per-cohort rollups (``rollup_k`` /
    ``rollup_every`` tune the governor), ``requests`` drives a
    focus-home HTTP load, and ``sampling`` (a rate) tail-samples the
    trace into ``trace.jsonl``.
    """
    from repro.obs.timeseries import TimeSeriesDB
    from repro.sim.engine import Simulator
    from repro.workloads.fleet import (FleetSpec, FocusRequestLoad,
                                       build_fleet)

    homes = int(params.get("homes", 1000))
    focus = int(params.get("focus_homes", 2))
    sim_seconds = float(params.get("sim_seconds", 60.0))
    per_home_metrics = bool(params.get("per_home_metrics", False))
    rollup_k = int(params.get("rollup_k", 8))
    rollup_every = int(params.get("rollup_every", 1))
    requests = int(params.get("requests", 0))
    sampling = params.get("sampling")

    sim = Simulator(seed=seed)
    fleet = build_fleet(sim, FleetSpec(
        num_homes=homes, focus_homes=focus,
        per_home_metrics=per_home_metrics,
        rollup_k=rollup_k, rollup_every=rollup_every))
    tracer = None
    if sampling is not None:
        tracer = sim.enable_tracing(capacity=262144)
        tracer.enable_tail_sampling(rate=float(sampling),
                                    slow_threshold=5.0)
    load = None
    if requests:
        load = FocusRequestLoad(fleet, requests=requests,
                                spacing=float(params.get("spacing", 0.25)))
    tsdb = TimeSeriesDB(sim, interval=1.0)
    tsdb.add_registry(fleet.registry, source="fleet")
    if load is not None:
        tsdb.add_registry(load.metrics, source="focus")
    fleet.attach_rollups(tsdb)
    tsdb.add_callback(
        "uplink0.up_bytes",
        lambda: fleet.aggregates[0].uplink.forward.stats.bytes_carried,
        kind="counter")
    fleet.start()
    if load is not None:
        load.start()
    tsdb.start()
    sim.run_until(sim_seconds)
    tsdb.export_jsonl(str(pathlib.Path(out_dir) / ARTIFACTS["tsdb"]))
    if tracer is not None:
        tracer.export_jsonl(str(pathlib.Path(out_dir) / ARTIFACTS["trace"]))
    facts: Dict[str, Any] = {
        "homes": homes,
        "scrapes": tsdb.scrapes,
        "up_bytes": float(
            fleet.aggregates[0].uplink.forward.stats.bytes_carried),
    }
    if per_home_metrics:
        facts["scrape_rows"] = tsdb.last_scrape_rows
        facts["rollup_cohorts"] = len(fleet.pools)
    if load is not None:
        facts["requests_ok"] = len(load.results)
        facts["request_errors"] = len(load.errors)
    if tracer is not None:
        stats = tracer.sampler.stats_record()
        facts["traces_seen"] = stats["traces_seen"]
        facts["traces_kept"] = stats["traces_kept"]
    return facts


def run_nocdn_fleet_cell(seed: int, params: Mapping[str, Any],
                         out_dir: pathlib.Path) -> Dict[str, Any]:
    """Fleet-scale NoCDN delivery of a Zipf workload, as one study cell.

    Builds a city of ``fleet`` homes (100 per neighborhood), signs every
    home's HPoP up as a peer, and replays ``loads`` Zipf-popular page
    loads from one client device per neighborhood. The facts quantify
    what the benchmark sweep compares: how much origin egress each
    collaborative-caching strategy avoids.

    Params: ``fleet`` (total homes; 100/1000/10000 in the bench),
    ``zipf`` (popularity skew alpha), ``strategy`` (``naive`` /
    ``sharded`` / ``replicate-hot``, or ``cdn`` for the provider-run
    edge baseline), ``loads``, ``pages`` (catalog size), ``spacing``
    (seconds between load starts), ``gossip`` (directory gossip
    interval; 0 = synchronous), ``cache_bytes`` (per-peer cache).
    """
    from repro.cdn.baselines import BaselinePageLoader, TraditionalCdn
    from repro.nocdn.loader import PageLoader
    from repro.nocdn.origin import ContentProvider
    from repro.nocdn.peer import NoCdnPeerService
    from repro.obs.timeseries import TimeSeriesDB
    from repro.util.units import mib
    from repro.workloads.nocdn import NoCdnWorld
    from repro.workloads.web import (CatalogSpec, ZipfPagePopularity,
                                     generate_catalog)

    fleet = int(params.get("fleet", 100))
    zipf = float(params.get("zipf", 0.9))
    strategy_name = str(params.get("strategy", "naive"))
    loads = int(params.get("loads", 240))
    pages = int(params.get("pages", 40))
    spacing = float(params.get("spacing", 0.5))
    gossip = float(params.get("gossip", 0.0))
    cache_bytes = int(params.get("cache_bytes", mib(64)))

    is_cdn = strategy_name == "cdn"
    nbhds = max(1, fleet // 100)
    # Every neighborhood's homes[0] hosts its client device; under NoCDN
    # the rest serve as peers. The naive baseline is the paper's
    # per-peer cache: no shared directory, so a miss fills from the
    # origin. The collaborative strategies get the directory and its
    # one-hop miss forwarding.
    world = NoCdnWorld(
        seed, max(2, fleet // nbhds),
        lambda sim: generate_catalog(CatalogSpec(num_pages=pages),
                                     sim.rng.stream("nocdn_fleet.catalog")),
        neighborhoods=nbhds, devices_per_home=1,
        server_sites={"origin": 1, "edge": 1}, tree_routing=True,
        strategy=None if is_cdn else strategy_name,
        directory=strategy_name != "naive", gossip_interval=gossip,
        provider=lambda w: ContentProvider(
            "news.example", w.origin, w.city.network, w.catalog,
            strategy=w.strategy, directory=w.directory,
            max_fallbacks=None if is_cdn else 3),
        services=lambda _i: [NoCdnPeerService(cache_bytes=cache_bytes)],
        with_peers=not is_cdn,
        loader=BaselinePageLoader if is_cdn else PageLoader)
    sim, city, provider = world.sim, world.city, world.provider
    peers, loaders, directory = world.peers, world.loaders, world.directory
    popularity = ZipfPagePopularity(world.catalog, zipf,
                                    sim.rng.stream("nocdn_fleet.zipf"))
    if is_cdn:
        cdn = TraditionalCdn(provider, city.network)
        edge = cdn.deploy_edge(city.server_sites["edge"].servers[0])
    results: list = []
    errors: list = []
    urls = popularity.draw_many(loads)

    def start_load(loader, url: str) -> None:
        if is_cdn:
            loader.load_via_cdn(cdn, url, results.append)
        else:
            loader.load(provider, url, results.append, errors.append)

    for i, url in enumerate(urls):
        sim.at(i * spacing, (lambda ld=loaders[i % len(loaders)], u=url:
                             start_load(ld, u)),
               label=f"fleet-load-{i}")

    tsdb = TimeSeriesDB(sim, interval=5.0)
    tsdb.add_callback("loads.completed", lambda: len(results),
                      kind="counter")
    tsdb.add_callback(
        "uplink0.bytes",
        lambda: city.neighborhoods[0].uplink.forward.stats.bytes_carried
        + city.neighborhoods[0].uplink.reverse.stats.bytes_carried,
        kind="counter")
    tsdb.start()
    sim.run()
    tsdb.export_jsonl(str(pathlib.Path(out_dir) / ARTIFACTS["tsdb"]))

    total_bytes = sum(r.total_bytes for r in results)
    peer_bytes = sum(r.bytes_from_peers for r in results)
    if is_cdn:
        # Every byte the edge inserts was fetched from the origin once.
        origin_egress = float(edge.cache.stats.inserted_bytes)
        byte_hit_ratio = (1.0 - edge.origin_fills
                          / max(1, edge.cache.stats.hits + edge.origin_fills))
    else:
        fill_bytes = sum(p.origin_fill_bytes for p in peers)
        client_origin = sum(r.bytes_from_origin for r in results)
        origin_egress = fill_bytes + client_origin
        served = (sum(p.local_hit_bytes for p in peers)
                  + sum(p.neighbor_hit_bytes for p in peers))
        byte_hit_ratio = served / max(1.0, served + fill_bytes)
    offload = 1.0 - origin_egress / total_bytes if total_bytes else 0.0

    facts: Dict[str, Any] = {
        "fleet": fleet,
        "zipf": zipf,
        "strategy": strategy_name,
        "loads_ok": len(results),
        "load_errors": len(errors),
        "total_bytes": int(total_bytes),
        "bytes_from_peers": int(peer_bytes),
        "origin_egress_bytes": int(origin_egress),
        "origin_offload": round(offload, 4),
        "byte_hit_ratio": round(byte_hit_ratio, 4),
        "aggregation_uplink_bytes": int(sum(
            n.uplink.forward.stats.bytes_carried
            + n.uplink.reverse.stats.bytes_carried
            for n in city.neighborhoods)),
    }
    if not is_cdn:
        facts["neighbor_hits"] = sum(p.neighbor_hits for p in peers)
        facts["forwarded_served"] = sum(p.forwarded_served for p in peers)
    if directory is not None:
        hist = directory.metrics.histograms["directory_staleness_seconds"]
        if hist.count:
            facts["directory_staleness_p100"] = round(hist.quantile(1.0), 4)
    return facts


BUILTIN_SCENARIOS: Dict[str, ScenarioFn] = {
    "chaos": run_chaos_cell,
    "fleet": run_fleet_cell,
    "nocdn_fleet": run_nocdn_fleet_cell,
}


def resolve_scenario(name: str) -> ScenarioFn:
    """A scenario callable from a built-in name or ``module:callable``."""
    if name in BUILTIN_SCENARIOS:
        return BUILTIN_SCENARIOS[name]
    if ":" in name:
        module_name, _, attr = name.partition(":")
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if not callable(fn):
            raise AttributeError(
                f"scenario {name!r}: {module_name} has no callable {attr!r}")
        return fn
    raise KeyError(
        f"unknown scenario {name!r}; built-ins: "
        f"{', '.join(sorted(BUILTIN_SCENARIOS))} "
        f"(or use a module:callable path)")
