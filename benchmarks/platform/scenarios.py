"""The seven scenario workloads of the platform benchmark.

Each workload is a class with the same three steps, timed separately
by ``measure.py``:

- ``__init__(seed, small)`` — *set-up*: build topology, HPoPs, sign-ups,
  catalog and seeding, and draw every input from ``seed``. ``small``
  builds the 20-home variant used for warm-up and the smoke tests; the
  code path is identical, only the sizes shrink.
- ``schedule()`` — push the open-loop schedule: every operation starts
  at a fixed simulated instant (``op_times``), whether or not earlier
  ones have completed. The caller then drives ``sim`` slice by slice.
- ``facts()`` / ``counts()`` / ``problems()`` — after the drain: the
  deterministic facts hashed into ``sim_digest``, the per-layer counts
  of the traced run, and the correctness checks.

The platform is driven only through its public functions; nothing here
reaches into a private attribute of ``repro``.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.attic.backup_service import PeerBackupService
from repro.attic.service import DataAtticService
from repro.dcol.collective import DetourCollective, WaypointService
from repro.dcol.manager import DetourManager
from repro.faults.plan import FaultPlan, LinkFlap, NodeCrash
from repro.hpop.core import Household, Hpop, User
from repro.iah.browser import HomeBrowser
from repro.iah.service import InternetAtHomeService
from repro.iah.web import Website
from repro.net.topology import (build_city, build_detour_testbed,
                                hierarchical_path_provider)
from repro.nocdn.directory import ContentDirectory
from repro.nocdn.loader import PageLoader
from repro.nocdn.origin import ContentProvider
from repro.nocdn.peer import NoCdnPeerService
from repro.nocdn.strategy import make_strategy
from repro.obs.timeseries import TimeSeriesDB
from repro.sim.engine import Simulator
from repro.util.rng import RngStreams
from repro.util.stats import percentile
from repro.util.units import mib
from repro.webdav.resources import DavFile
from repro.workloads.fleet import FleetSpec, FocusRequestLoad, build_fleet
from repro.workloads.web import (CatalogSpec, ZipfPagePopularity,
                                 generate_catalog)

SLICES = 40
# The sites' content is a fixed property of a workload, like its fleet
# size: page and object sizes drawn per seed would move the cost of an
# operation by several percent from seed to seed. The request sequence,
# churn and faults are what ``--seed`` varies.
SITE_SEED = 7


class Workload:
    """What ``measure.py`` needs from a built world."""

    name = ""
    why = ""

    sim: Simulator
    # Absolute simulated start instant of every operation, ascending.
    op_times: List[float]
    # Simulated instant the last slice ends at (the drain follows).
    end_time: float

    def __init__(self) -> None:
        self.op_times = []
        self.end_time = 0.0
        # operation -> simulated latency of its completion, and how many
        # failed; an operation in neither never completed.
        self.op_latency: Dict[int, float] = {}
        self.failed = 0

    def schedule(self) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Runs after the drain, still inside the measured phase."""

    def completed(self) -> int:
        return len(self.op_latency)

    def latency_quantile(self, q: float) -> float:
        """Simulated seconds; ``q`` in [0, 1]."""
        return percentile(list(self.op_latency.values()), q * 100)

    def slice_edges(self) -> List[float]:
        """End instants of the measured slices: equal simulated time."""
        start = self.sim.now
        width = (self.end_time - start) / SLICES
        return [start + width * (i + 1) for i in range(SLICES)]

    def facts(self) -> Dict[str, Any]:
        raise NotImplementedError

    def counts(self) -> Dict[str, float]:
        """Per-layer counts read from the world's public state."""
        return {}

    def problems(self) -> List[str]:
        """Workload-specific correctness failures (empty = correct)."""
        return []


# -- NoCDN fleet family -------------------------------------------------------


class NocdnFleet(Workload):
    """A city of NoCDN peers replaying Zipf-popular page loads.

    Mirrors ``repro.experiments.scenarios.run_nocdn_fleet_cell`` (same
    rng streams, see ``NocdnFleetCell``) without its TSDB: observability
    stays off on the three NoCDN workloads.
    """

    neighborhoods = 1
    homes = 100
    pages = 40
    loads = 120
    spacing = 0.5
    zipf = 0.9
    # Membership churn (nocdn_churn_3k only): share of peers whose
    # sign-up is held back for the waves, and the wave shape.
    held_back = 0.0
    wave_every = 0.0
    wave_quarantine = 0
    wave_quarantine_s = 15.0
    wave_expel = 0
    wave_sign_up = 0

    def __init__(self, seed: int, small: bool = False) -> None:
        super().__init__()
        nbhds, homes, loads = self.neighborhoods, self.homes, self.loads
        if small:
            nbhds, homes, loads = 1, 20, 24
        self.sim = sim = Simulator(seed=seed)
        self.city = city = build_city(
            sim, num_neighborhoods=nbhds, homes_per_neighborhood=homes,
            devices_per_home=1, server_sites={"origin": 1, "edge": 1})
        city.network.path_provider = hierarchical_path_provider(city)
        catalog = generate_catalog(
            CatalogSpec(num_pages=self.pages),
            RngStreams(SITE_SEED).stream("nocdn_fleet.catalog"))
        popularity = ZipfPagePopularity(
            catalog, self.zipf, sim.rng.stream("nocdn_fleet.zipf"))
        self.provider = ContentProvider(
            "news.example", city.server_sites["origin"].servers[0],
            city.network, catalog, strategy=make_strategy("sharded"),
            directory=ContentDirectory(sim, gossip_interval=0.0),
            max_fallbacks=3)
        self.peers: List[NoCdnPeerService] = []
        for nbhd in city.neighborhoods:
            # homes[0] hosts the neighbourhood's client device.
            for home in nbhd.homes[1:]:
                service = NoCdnPeerService(cache_bytes=mib(64))
                tag = f"n{nbhd.index}h{home.index}"
                hpop = Hpop(home.hpop_host, city.network,
                            Household(name=tag,
                                      users=[User(f"u-{tag}", "pw")]))
                hpop.install(service)
                hpop.start()
                self.peers.append(service)
        churn_rng = sim.rng.stream("bench.churn")
        self.waiting: List[NoCdnPeerService] = []
        if self.held_back:
            self.waiting = churn_rng.sample(
                self.peers, int(len(self.peers) * self.held_back))
        held = set(map(id, self.waiting))
        for service in self.peers:
            if id(service) not in held:
                service.sign_up(self.provider)
        self.loaders = [PageLoader(nbhd.homes[0].devices[0], city.network)
                        for nbhd in city.neighborhoods]
        self.urls = popularity.draw_many(loads)
        self.results: list = []
        self.errors: list = []
        self.membership_ops = 0
        self._churn_rng = churn_rng

    def schedule(self) -> None:
        sim, t0 = self.sim, self.sim.now
        for i, url in enumerate(self.urls):
            at = t0 + i * self.spacing
            self.op_times.append(at)
            loader = self.loaders[i % len(self.loaders)]
            sim.at(at, (lambda ld=loader, u=url, n=i: self._start(ld, u, n)),
                   label=f"bench.load{i}")
        self.end_time = t0 + len(self.urls) * self.spacing
        if self.wave_every:
            at = t0 + self.wave_every
            while at < self.end_time:
                sim.at(at, self._wave, label="bench.wave")
                at += self.wave_every

    def _start(self, loader: PageLoader, url: str, op: int) -> None:
        begin_op(op)
        loader.load(self.provider, url,
                    lambda result: self._done(op, result), self._error)

    def _done(self, op: int, result) -> None:
        self.results.append(result)
        self.op_latency[op] = result.duration

    def _error(self, exc) -> None:
        self.errors.append(exc)
        self.failed += 1

    def _wave(self) -> None:
        """One seeded membership wave: quarantine, expel, late sign-up."""
        rng, provider = self._churn_rng, self.provider
        members = sorted(p.peer_id for p in provider.alive_peers())
        picked = rng.sample(members, min(len(members), self.wave_quarantine
                                         + self.wave_expel))
        for peer_id in picked[:self.wave_quarantine]:
            provider.quarantine_peer(peer_id, self.wave_quarantine_s)
        for peer_id in picked[self.wave_quarantine:]:
            provider.expel_peer(peer_id)
        late = min(self.wave_sign_up, len(self.waiting))
        for _ in range(late):
            self.waiting.pop().sign_up(provider)
        self.membership_ops += len(picked) + late

    # -- results -----------------------------------------------------------

    def _bytes(self) -> Dict[str, float]:
        peers, results = self.peers, self.results
        total = sum(r.total_bytes for r in results)
        fill = sum(p.origin_fill_bytes for p in peers)
        local = sum(p.local_hit_bytes for p in peers)
        neighbor = sum(p.neighbor_hit_bytes for p in peers)
        egress = fill + sum(r.bytes_from_origin for r in results)
        return {"total": total, "fill": fill, "local": local,
                "neighbor": neighbor, "egress": egress}

    def facts(self) -> Dict[str, Any]:
        b = self._bytes()
        served = b["local"] + b["neighbor"]
        return {
            "loads_ok": len(self.results),
            "load_errors": len(self.errors),
            "total_bytes": int(b["total"]),
            "bytes_from_peers": int(sum(r.bytes_from_peers
                                        for r in self.results)),
            "origin_egress_bytes": int(b["egress"]),
            "origin_offload": round(
                1.0 - b["egress"] / b["total"] if b["total"] else 0.0, 4),
            "byte_hit_ratio": round(
                served / max(1.0, served + b["fill"]), 4),
            "aggregation_uplink_bytes": int(sum(
                n.uplink.forward.stats.bytes_carried
                + n.uplink.reverse.stats.bytes_carried
                for n in self.city.neighborhoods)),
            "wrappers_issued": self.provider.wrappers_issued,
            "peer_failures": sum(len(r.peer_failures) for r in self.results),
            "membership_ops": self.membership_ops,
            "peers_usable_at_end": len(self.provider.alive_peers()),
        }

    def counts(self) -> Dict[str, float]:
        b = self._bytes()
        delivered = max(1.0, b["local"] + b["neighbor"] + b["fill"])
        facts = self.facts()
        return {
            "nocdn.wrappers": self.provider.wrappers_issued,
            "nocdn.membership_ops": self.membership_ops,
            "nocdn.failovers": sum(
                ld.metrics.counters["peer_failovers"].value
                + ld.metrics.counters["origin_fallbacks"].value
                for ld in self.loaders),
            "nocdn.origin_offload": facts["origin_offload"],
            "nocdn.byte_hit_ratio": facts["byte_hit_ratio"],
            # The Home-Box tier table: which tier's copy answered the
            # bytes the peers delivered.
            "nocdn.tier_local_share": b["local"] / delivered,
            "nocdn.tier_neighbor_share": b["neighbor"] / delivered,
            "nocdn.tier_origin_share": b["fill"] / delivered,
            "net.bytes_carried": facts["aggregation_uplink_bytes"],
        }


class NocdnFleet10k(NocdnFleet):
    name = "nocdn_fleet_10k"
    why = ("10k homes: per-wrapper O(fleet) work in nocdn dominates; the "
           "only workload with a large setup_s")
    neighborhoods, homes, pages, loads, spacing = 100, 100, 40, 120, 0.5


class NocdnFleetCell(NocdnFleet10k):
    """The whole ``BENCH_nocdn.json`` cell ``z0p9_f10000_sharded`` at
    seed 7; ``nocdn_fleet_10k`` replays its first third. Not a workload:
    ``run.py`` replays it once to check this harness against the cell."""

    loads = 360


class NocdnDense100(NocdnFleet):
    name = "nocdn_dense_100"
    why = ("100 homes, 600 loads: per-load O(fleet) is negligible, so "
           "sim/transport/http carry the cost; bypasses membership work")
    neighborhoods, homes, pages, loads, spacing = 1, 100, 200, 600, 0.05


class NocdnChurn3k(NocdnFleet):
    name = "nocdn_churn_3k"
    why = ("3k homes with membership waves: peer registry and ring are "
           "written beside reads, so costly membership updates show")
    neighborhoods, homes, pages, loads, spacing = 30, 100, 40, 120, 0.5
    held_back = 0.10
    # One wave per five slices: a quarter of the slices would put
    # slice_ms_per_op_p75 on the edge between slices with and without one.
    wave_every = 7.5
    wave_quarantine, wave_expel, wave_sign_up = 30, 10, 10


# -- Data Attic ------------------------------------------------------------------


class AtticBackupRepair(Workload):
    """Owner + 12 friends, RS(6,3): back up, lose 3 holders, repair,
    lose the originals, restore. One operation = one file-operation."""

    name = "attic_backup_repair"
    why = ("bulk transport flows and real GF(256) coding in util.erasure "
           "do the work; nocdn does none")
    friends, k, m = 12, 6, 3
    files, file_bytes = 8, mib(8)
    # Simulated seconds between file-operation starts; a file-operation
    # takes well under half of it, so phases never overlap.
    gap = 2.0
    lost_holders = 3

    def __init__(self, seed: int, small: bool = False) -> None:
        super().__init__()
        files, size = (2, mib(1)) if small else (self.files, self.file_bytes)
        self.sim = sim = Simulator(seed=seed)
        city = build_city(sim, homes_per_neighborhood=self.friends + 2)
        self.services: List[PeerBackupService] = []
        for i in range(self.friends + 1):
            home = city.neighborhoods[0].homes[i]
            hpop = Hpop(home.hpop_host, city.network,
                        Household(name=f"h{i}", users=[User("u", "p")]))
            hpop.install(DataAtticService())
            self.services.append(
                hpop.install(PeerBackupService(k=self.k, m=self.m)))
            hpop.start()
        self.owner = self.services[0]
        for friend in self.services[1:]:
            self.owner.add_friend(friend)
        self.tree = self.owner.hpop.service("attic").dav.tree
        self.tree.mkcol_recursive("/u0")
        # The seeded input is which file has which size: 75%..125% of the
        # nominal size in equal steps, so every seed moves the same bytes.
        sizes = [int(size * (0.75 + 0.5 * i / (files - 1)))
                 for i in range(files)]
        sim.rng.stream("bench.attic").shuffle(sizes)
        self.paths = [f"/u0/file{i}.dat" for i in range(files)]
        for path, nbytes in zip(self.paths, sizes):
            self.tree.put(path, size=nbytes)
        self.done: Dict[str, List[bool]] = {
            "backup": [], "repair": [], "restore": []}
        self.shards_repaired = 0

    def schedule(self) -> None:
        sim, gap, t = self.sim, self.gap, self.sim.now
        op = 0
        for phase, before in (("backup", None),
                              ("repair", self._lose_holders),
                              ("restore", self._lose_originals)):
            if before is not None:
                sim.at(t, before, label=f"bench.attic.pre-{phase}")
            for path in self.paths:
                self.op_times.append(t)
                sim.at(t, (lambda ph=phase, p=path, n=op, at=t:
                           self._start(ph, p, n, at)),
                       label=f"bench.attic.{phase}")
                t += gap
                op += 1
        self.end_time = t

    def slice_edges(self) -> List[float]:
        # One slice per file-operation: equal operation counts.
        return [at + self.gap / 2 for at in self.op_times]

    def _start(self, phase: str, path: str, op: int, at: float) -> None:
        begin_op(op)

        def finished(ok, *rest) -> None:
            self.done[phase].append(bool(ok))
            if phase == "repair":
                self.shards_repaired += rest[0]
            if ok:
                self.op_latency[op] = self.sim.now - at
            else:
                self.failed += 1

        getattr(self.owner, f"{phase}_file")(path, finished)

    def _lose_holders(self) -> None:
        holders = [s for s in self.services[1:] if s.held_shards]
        for dead in holders[:self.lost_holders]:
            dead.hpop.shutdown()

    def _lose_originals(self) -> None:
        for path in self.paths:
            self.tree.delete(path)

    def fully_redundant(self) -> bool:
        by_name = {s.owner_name: s for s in self.services}
        for entry in self.owner.manifest.values():
            if len(set(entry.shard_holders)) != self.k + self.m:
                return False
            for index, holder_name in enumerate(entry.shard_holders):
                holder = by_name[holder_name]
                if not holder.hpop.running:
                    return False
                if (entry.owner, entry.path, index) not in holder.held_shards:
                    return False
        return True

    def facts(self) -> Dict[str, Any]:
        return {
            "files": len(self.paths),
            "backups_ok": sum(self.done["backup"]),
            "repairs_ok": sum(self.done["repair"]),
            "restores_ok": sum(self.done["restore"]),
            "shards_repaired": self.shards_repaired,
            "shards_sent": self.owner.shards_sent,
            "bytes_at_friends": sum(s.bytes_stored_for_friends
                                    for s in self.services[1:]),
            "backed_up_bytes": self.owner.backed_up_bytes(),
            "fully_redundant": self.fully_redundant(),
            "restored_files": sum(
                isinstance(self.tree.lookup(p), DavFile) for p in self.paths),
        }

    def counts(self) -> Dict[str, float]:
        counters = self.owner.metrics.counters
        restores = self.done["restore"]
        return {
            "attic.files_backed_up": sum(self.done["backup"]),
            "attic.shards_repaired": counters["shards_repaired"].value,
            "attic.repair_mb": counters["repair_bytes"].value / mib(1),
            "attic.restore_ok_ratio": (sum(restores) / len(restores)
                                       if restores else 0.0),
            "erasure.decode_cache_hit_rate":
                self.owner.codec.decode_cache_stats.hit_rate,
        }

    def problems(self) -> List[str]:
        facts = self.facts()
        out = []
        if not facts["fully_redundant"]:
            out.append("attic did not end fully redundant")
        # restore_file byte-verifies: it reports ok only when the decoded
        # payload hashes to the manifest checksum.
        if facts["restores_ok"] != facts["files"]:
            out.append("not every restore byte-verified")
        if facts["restored_files"] != facts["files"]:
            out.append("restored files missing from the attic")
        return out


# -- Chaos storm under full observability ----------------------------------------------


class ChaosStormObs(Workload):
    """The ``bench_a8_control`` storm with every observer attached."""

    name = "chaos_storm_obs"
    why = ("faults, control and obs take their largest share; exercises "
           "the engine's fully instrumented loop")
    peers, loads, spacing = 12, 900, 0.08
    churn, horizon = 0.20, 45.0
    repeat_flaps, flap_duration = (12.0, 19.0, 26.0), 4.0
    holder_crash_at, holder_downtime = 60.0, 12.0
    run_for = 100.0

    def __init__(self, seed: int, small: bool = False) -> None:
        super().__init__()
        # The chaos world is the repo's own acceptance scenario; it lives
        # with the integration tests (run_chaos_cell imports it too).
        from tests.integration.test_chaos import ChaosWorld

        if small:
            self.loads = 60
        # The classic per-peer world, as in bench_a8: sharded placement
        # homes both pages on a few peers, the storm's victims then
        # serve nothing, and no failover, alert or quarantine happens.
        self.world = world = ChaosWorld(seed, num_peers=self.peers)
        self.sim = world.sim
        self.tracer = world.sim.enable_tracing(capacity=262144)
        world.enable_sampling(rate=0.1)
        world.enable_telemetry(scrape_interval=0.25, eval_interval=0.25,
                               exemplars=True)
        world.enable_controller(quarantine_s=45.0)
        world.seed_attic()

    def schedule(self) -> None:
        world, t0 = self.world, self.sim.now
        plan = world.apply_churn(self.churn, flaps=1, horizon=self.horizon)
        storm = FaultPlan()
        for dt in self.repeat_flaps:
            storm.add(LinkFlap("hpop-n0h3", at=t0 + dt,
                               duration=self.flap_duration))
        holders = sorted({h for entry in world.owner.manifest.values()
                          for h in entry.shard_holders})
        storm.add(NodeCrash(holders[0], at=t0 + self.holder_crash_at,
                            downtime=self.holder_downtime))
        world.injector.apply(storm)
        self.faults_planned = len(plan) + len(storm)
        self.results: list = []
        self.errors: list = []
        for i in range(self.loads):
            at = t0 + 1.0 + self.spacing * i
            self.op_times.append(at)
            self.sim.at(at, (lambda u=f"/page{i % 2}", n=i:
                             self._start(u, n)), label=f"bench.load{i}")
        self.end_time = t0 + self.run_for

    def _start(self, url: str, op: int) -> None:
        begin_op(op)
        self.world.loader.load(self.world.provider, url,
                               lambda result: self._done(op, result),
                               self._error)

    def _done(self, op: int, result) -> None:
        self.results.append(result)
        self.op_latency[op] = result.duration

    def _error(self, exc) -> None:
        self.errors.append(exc)
        self.failed += 1

    def finish(self) -> None:
        self.world.slo_monitor.finish()
        self.world.sampler.flush()

    def facts(self) -> Dict[str, Any]:
        world = self.world
        ctl = world.controller
        stats = world.sampler.stats_record()
        injected = world.injector.metrics.counters
        return {
            "loads_ok": len(self.results),
            "load_errors": len(self.errors),
            "total_bytes": int(sum(r.total_bytes for r in self.results)),
            "peer_failures": sum(len(r.peer_failures) for r in self.results),
            "faults_planned": self.faults_planned,
            "node_crashes": int(injected["node_crashes"].value),
            "link_flaps": int(injected["link_flaps"].value),
            "attic_redundant": bool(world.attic_fully_redundant()),
            "slo_transitions": len(world.slo_monitor.events),
            "alerts_fired": sum(1 for e in world.slo_monitor.events
                                if e.get("state") == "firing"),
            "control_decisions": len(ctl.decisions()),
            "control_actions": int(
                ctl.metrics.counters["actions_executed"].value),
            "traces_seen": stats["traces_seen"],
            "traces_kept": stats["traces_kept"],
            "tsdb_scrapes": world.tsdb.scrapes,
        }

    def counts(self) -> Dict[str, float]:
        world = self.world
        facts = self.facts()
        loader = world.loader
        return {
            "nocdn.wrappers": world.provider.wrappers_issued,
            "nocdn.failovers":
                loader.metrics.counters["peer_failovers"].value
                + loader.metrics.counters["origin_fallbacks"].value,
            "faults.injected": facts["node_crashes"] + facts["link_flaps"],
            "control.decisions": facts["control_decisions"],
            "control.actions": facts["control_actions"],
            "obs.scrapes": world.tsdb.scrapes,
            "obs.rows_per_scrape": world.tsdb.last_scrape_rows,
            "obs.spans_recorded": len(self.tracer.spans()),
            "obs.traces_kept_ratio": (facts["traces_kept"]
                                      / max(1, facts["traces_seen"])),
            "attic.shards_repaired":
                world.owner.metrics.counters["shards_repaired"].value,
        }

    def problems(self) -> List[str]:
        if not self.world.attic_fully_redundant():
            return ["attic did not return to full redundancy"]
        return []


# -- 100k-home fleet under the telemetry stack --------------------------------------------


class FleetObs100k(Workload):
    """The analytic 100k-home fleet with the full collection stack.
    One operation = one simulated second (with its one focus request)."""

    name = "fleet_obs_100k"
    why = ("obs.rollup/obs.timeseries and the engine's lite loop with no "
           "service logic; where a memory or cardinality change shows")
    homes, per_neighborhood, seconds = 100_000, 1_000, 160

    def __init__(self, seed: int, small: bool = False) -> None:
        super().__init__()
        homes, per = (20, 10) if small else (self.homes,
                                             self.per_neighborhood)
        if small:
            self.seconds = 20
        self.sim = sim = Simulator(seed=seed)
        self.fleet = fleet = build_fleet(sim, FleetSpec(
            num_homes=homes, homes_per_neighborhood=per, focus_homes=4,
            per_home_metrics=True, rollup_k=8, rollup_every=1))
        self.tracer = sim.enable_tracing(capacity=262144, trace_events=False,
                                         profile_events=False)
        self.sampler = self.tracer.enable_tail_sampling(
            rate=0.1, slow_threshold=5.0)
        # One request per simulated second; every 25th stalls at the
        # origin and every 10th targets a focus HPoP, so the sampler
        # sees slow and ordinary traces.
        self.load = FocusRequestLoad(fleet, requests=self.seconds,
                                     spacing=1.0, timeout=4.0,
                                     slow_every=25, slow_delay=2.0,
                                     peer_every=10)
        self.tsdb = tsdb = TimeSeriesDB(sim, interval=1.0)
        tsdb.add_registry(fleet.registry, source="fleet")
        tsdb.add_registry(self.load.metrics, source="focus")
        fleet.attach_rollups(tsdb)

    def schedule(self) -> None:
        t0 = self.sim.now
        self.fleet.start()
        self.load.start()
        self.tsdb.start()
        self.op_times = [t0 + i + 1.0 for i in range(self.seconds)]
        self.end_time = t0 + self.seconds

    def finish(self) -> None:
        self.fleet.stop()
        self.sampler.flush()
        self.failed = len(self.load.errors)

    def completed(self) -> int:
        return len(self.load.results)

    def latency_quantile(self, q: float) -> float:
        # The second's focus request is the operation's latency.
        return self.load.metrics.histograms["request_seconds"].quantile(q)

    def facts(self) -> Dict[str, Any]:
        stats = self.sampler.stats_record()
        uplink = self.fleet.aggregates[0].uplink
        return {
            "homes": self.fleet.spec.num_homes,
            "scrapes": self.tsdb.scrapes,
            "scrape_rows": self.tsdb.last_scrape_rows,
            "series": len(self.tsdb.series),
            "rollup_cohorts": len(self.fleet.pools),
            "up_bytes": round(float(uplink.forward.stats.bytes_carried), 3),
            "requests_ok": len(self.load.results),
            "request_errors": len(self.load.errors),
            "traces_seen": stats["traces_seen"],
            "traces_kept": stats["traces_kept"],
        }

    def counts(self) -> Dict[str, float]:
        facts = self.facts()
        return {
            "obs.scrapes": self.tsdb.scrapes,
            "obs.rows_per_scrape": self.tsdb.last_scrape_rows,
            "obs.spans_recorded": len(self.tracer.spans()),
            "obs.traces_kept_ratio": (facts["traces_kept"]
                                      / max(1, facts["traces_seen"])),
            "net.bytes_carried": facts["up_bytes"],
        }


# -- DCol detours + Internet@home prefetch --------------------------------------------------


class DetourPrefetch(Workload):
    """DCol multipath transfers and Internet@home visits, interleaved."""

    name = "detour_prefetch"
    why = ("the only use of transport.mptcp, dcol and iah; bypasses "
           "nocdn, attic and obs")
    transfers, transfer_bytes, transfer_gap = 40, mib(25), 3.0
    site_pages, history, gather_every, visits = 300, 2000, 100, 1500

    def __init__(self, seed: int, small: bool = False) -> None:
        super().__init__()
        if small:
            self.transfers, self.transfer_bytes = 4, mib(2)
            self.site_pages, self.history, self.visits = 20, 100, 60
        self.sim = sim = Simulator(seed=seed)
        # DCol: the detour testbed with three waypoint HPoPs.
        self.bed = bed = build_detour_testbed(sim, num_waypoints=3)
        collective = DetourCollective()
        self.waypoints: List[WaypointService] = []
        for wp in bed.waypoints:
            hpop = Hpop(wp, bed.network,
                        Household(name=wp.name, users=[User("u", "p")]))
            service = hpop.install(WaypointService())
            hpop.start()
            collective.join(service)
            self.waypoints.append(service)
        self.manager = DetourManager(bed.client, bed.network, collective)
        # One native-only transfer, for dcol.sim_speedup_vs_native.
        t0 = sim.now
        self.manager.start_transfer(bed.server, self.transfer_bytes)
        sim.run()
        self.native_s = sim.now - t0
        # IaH: one home in front of a 300-page site, history-warmed.
        self.city = city = build_city(sim, homes_per_neighborhood=2,
                                      server_sites={"web": 1})
        catalog = generate_catalog(
            CatalogSpec(num_pages=self.site_pages),
            RngStreams(SITE_SEED).stream("bench.iah.catalog"))
        self.site = site = Website(
            "news.example", city.server_sites["web"].servers[0],
            city.network, catalog)
        home = city.neighborhoods[0].homes[0]
        self.hpop = hpop = Hpop(home.hpop_host, city.network,
                                Household(name="h",
                                          users=[User("ann", "pw")]))
        self.iah = iah = hpop.install(InternetAtHomeService(
            aggressiveness=0.5, gather_interval=0))
        iah.register_site(site)
        hpop.start()
        popularity = ZipfPagePopularity(site.catalog, 0.9,
                                        sim.rng.stream("bench.iah.zipf"))
        for i, url in enumerate(popularity.draw_many(self.history)):
            iah.record_visit(site.name, url)
            iah.learn_page(site.name, url, site.catalog.page(url))
            if (i + 1) % self.gather_every == 0:
                iah.gather()
                sim.run()
        self.browser = HomeBrowser(home.devices[0], city.network)
        self.urls = popularity.draw_many(self.visits)
        self.transfer_times: List[float] = []
        self.visit_results: list = []

    def schedule(self) -> None:
        sim, t0 = self.sim, self.sim.now
        self.end_time = t0 + self.transfers * self.transfer_gap
        visit_gap = (self.end_time - t0) / self.visits
        starts = ([(t0 + i * self.transfer_gap, "transfer", i)
                   for i in range(self.transfers)]
                  + [(t0 + j * visit_gap, "visit", j)
                     for j in range(self.visits)])
        starts.sort()
        for op, (at, kind, index) in enumerate(starts):
            self.op_times.append(at)
            start = self._transfer if kind == "transfer" else self._visit
            sim.at(at, (lambda f=start, i=index, n=op, t=at: f(i, n, t)),
                   label=f"bench.{kind}{index}")

    def _transfer(self, index: int, op: int, at: float) -> None:
        begin_op(op)

        def complete(_transfer) -> None:
            self.transfer_times.append(self.sim.now - at)
            self.op_latency[op] = self.sim.now - at

        transfer = self.manager.start_transfer(
            self.bed.server, self.transfer_bytes, on_complete=complete,
            label=f"bench.dcol{index}")
        transfer.add_detour(self.waypoints[0])
        transfer.add_detour(self.waypoints[1])

    def _visit(self, index: int, op: int, at: float) -> None:
        begin_op(op)

        def done(result) -> None:
            self.visit_results.append(result)
            self.op_latency[op] = result.duration

        self.browser.load_via_hpop(self.hpop.host, self.site,
                                   self.urls[index], done,
                                   record_visit=True)

    def facts(self) -> Dict[str, Any]:
        visits = self.visit_results
        hits = sum(r.cache_hits for r in visits)
        objects = sum(r.object_count for r in visits)
        return {
            "transfers_done": len(self.transfer_times),
            "transfer_sim_s": round(sum(self.transfer_times), 6),
            "native_transfer_sim_s": round(self.native_s, 6),
            "visits_done": len(visits),
            "visit_objects": objects,
            "visit_hits": hits,
            "visit_bytes": int(sum(r.bytes_total for r in visits)),
            "iah_upstream_bytes": int(self.iah.stats.upstream_bytes),
            "iah_rounds": self.iah.stats.rounds,
        }

    def counts(self) -> Dict[str, float]:
        facts = self.facts()
        return {
            "dcol.transfers": facts["transfers_done"],
            "dcol.sim_speedup_vs_native": (
                self.native_s * facts["transfers_done"]
                / facts["transfer_sim_s"] if self.transfer_times else 0.0),
            "iah.visits": facts["visits_done"],
            "iah.hit_rate": facts["visit_hits"] / max(1,
                                                      facts["visit_objects"]),
            "iah.gathers": facts["iah_rounds"],
            "iah.upstream_mb": facts["iah_upstream_bytes"] / 1e6,
        }


def begin_op(op: int) -> None:
    """Hook the traced run replaces: marks the start of operation ``op``
    so its spans share one trace id."""


WORKLOADS = {cls.name: cls for cls in (
    NocdnFleet10k, NocdnDense100, NocdnChurn3k, AtticBackupRepair,
    ChaosStormObs, FleetObs100k, DetourPrefetch)}
