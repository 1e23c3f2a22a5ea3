"""The chaos world: NoCDN page serving and attic peer backup under churn.

One seeded city whose HPoPs are NoCDN peers *and* each other's attic
backup friends, a fault plan of crashes and link flaps against it, and
optional telemetry, tail sampling and the autonomous controller on top.
The city, catalog, provider and sign-ups are a
:class:`~repro.workloads.nocdn.NoCdnWorld` whose homes install the data
attic and peer backup before their NoCDN peer. It is the world behind the chaos acceptance tests
(``tests/integration/test_chaos.py``), the ``chaos`` study scenario,
``scripts/chaos_soak.py``, the dashboard report and benches A7/A8.
"""

import json
import pathlib

from repro.attic.backup_service import PeerBackupService
from repro.attic.service import DataAtticService
from repro.faults import FaultInjector, FaultPlan, LinkFlap
from repro.nocdn.loader import PageLoader
from repro.nocdn.peer import NoCdnPeerService
from repro.obs.records import ARTIFACTS
from repro.util.units import kib
from repro.workloads.nocdn import NoCdnWorld
from repro.workloads.web import make_catalog

CHURN_FRACTION = 0.2
CHURN_START = 2.0
CHURN_HORIZON = 20.0
NUM_PEERS = 8
NUM_LOADS = 40
RUN_FOR = 150.0


class ChaosWorld(NoCdnWorld):
    """NoCDN peers that are also each other's attic backup friends.

    HPoP index 0 is the attic owner whose files must survive; every
    HPoP additionally serves NoCDN chunks. Churn victims are drawn
    from indices 1..n so the owner's manifest stays authoritative.
    """

    def __init__(self, seed: int, num_peers: int = NUM_PEERS,
                 strategy: str = None):
        self.num_peers = num_peers
        self.backups = []
        # Collaborative caching rides along when a strategy is named;
        # the default (None) keeps the classic world — and its seeded
        # exports — byte-identical.
        super().__init__(
            seed, num_peers + 2, lambda _sim: make_catalog(num_pages=2),
            strategy=strategy, peers=num_peers, services=self._home_services,
            loader=lambda device, network: PageLoader(device, network,
                                                      peer_timeout=1.0))
        self.owner = self.backups[0]
        for friend in self.backups[1:]:
            self.owner.add_friend(friend)
        self.client_device = self.clients[0]
        self.loader = self.loaders[0]
        self.injector = FaultInjector(self.sim, self.city.network,
                                      hpops=self.hpops)
        self.tsdb = None
        self.slo_monitor = None
        self.controller = None
        self.zone = None
        self.resolver = None
        self.exemplar_store = None
        self.sampler = None
        self.redundancy_transitions = []

    def _home_services(self, index: int):
        """Home ``index``'s attic and peer backup, installed before its
        NoCDN peer; the owner (home 0) heartbeats its friends."""
        attic = DataAtticService()
        backup = PeerBackupService(
            k=2, m=1, heartbeat_interval=1.0 if index == 0 else None)
        self.backups.append(backup)
        return [attic, backup, NoCdnPeerService()]

    def enable_sampling(self, rate: float = 0.05, **policy):
        """Attach deterministic tail-based trace sampling.

        Requires ``sim.enable_tracing()`` first. Defaults size the
        limbo grace to cover the longest SLO burn window, so exemplar
        pins from late-firing alerts still resurrect their traces.
        Returns the :class:`~repro.obs.sampling.TailSampler`.
        """
        tracer = self.sim.tracer
        if not hasattr(tracer, "enable_tail_sampling"):
            raise RuntimeError("call sim.enable_tracing() before "
                               "enable_sampling()")
        policy.setdefault("slow_threshold", 5.0)
        policy.setdefault("grace", 120.0)
        self.sampler = tracer.enable_tail_sampling(rate=rate, **policy)
        if self.exemplar_store is not None:
            self.exemplar_store.sampler = self.sampler
        return self.sampler

    def enable_telemetry(self, scrape_interval: float = 0.25,
                         eval_interval: float = 0.5,
                         exemplars: bool = False):
        """Attach the full fleet-telemetry stack to this world.

        Scrapes every registry (loader, injector, network, each HPoP's
        peer-backup service) into a :class:`TimeSeriesDB` under a
        per-source prefix, and evaluates the NoCDN + attic default SLOs
        against it. With ``exemplars`` an
        :class:`~repro.obs.sampling.ExemplarStore` links every firing
        alert to the worst in-window request's trace (and pins it
        through the sampler when one is attached). Returns
        ``(tsdb, slo_monitor)``.
        """
        from repro.attic.backup_service import default_slos as attic_slos
        from repro.nocdn.loader import default_slos as nocdn_slos
        from repro.obs.slo import SloMonitor
        from repro.obs.timeseries import TimeSeriesDB

        if exemplars:
            from repro.obs.sampling import ExemplarStore
            self.exemplar_store = ExemplarStore(self.sim, window=120.0)
            self.exemplar_store.sampler = self.sampler
            self.loader.exemplars = self.exemplar_store
            for backup in self.backups:
                backup.exemplars = self.exemplar_store
        self.tsdb = TimeSeriesDB(self.sim, interval=scrape_interval)
        self.tsdb.add_registry(self.loader.metrics, source="client")
        self.tsdb.add_registry(self.injector.metrics, source="injector")
        self.tsdb.add_registry(self.city.network.metrics, source="net")
        for i, backup in enumerate(self.backups):
            self.tsdb.add_registry(backup.metrics, source=f"h{i}")
        specs = nocdn_slos("client") + attic_slos("h0")
        self.slo_monitor = SloMonitor(self.sim, self.tsdb, specs,
                                      interval=eval_interval,
                                      exemplars=self.exemplar_store)
        self.tsdb.add_registry(self.slo_monitor.metrics, source="slo")
        self.tsdb.start()
        self.slo_monitor.start()
        return self.tsdb, self.slo_monitor

    def enable_controller(self, quarantine_s: float = 20.0):
        """Attach the autonomous control plane on top of the telemetry.

        One shared :class:`Controller` subscribes to the SLO monitor's
        alert stream and the owner attic's death/revival verdicts;
        rules quarantine failing NoCDN peers, pull attic repairs
        forward, probe implicated friends out-of-band, evacuate
        chronically flappy holders, and re-register restarted HPoPs in
        a ``home.`` zone (invalidating the client resolver's cache).
        Requires :meth:`enable_telemetry` first. Returns the controller.
        """
        from repro.control import (
            Controller,
            ControlAgent,
            attic_migrate_rule,
            attic_probe_rule,
            attic_repair_rule,
            nocdn_rerank_rule,
            reregister_rule,
        )
        from repro.naming.dns import StubResolver, Zone

        assert self.slo_monitor is not None, "enable_telemetry() first"
        self.controller = Controller(self.sim)
        self.zone = Zone("home")
        self.resolver = StubResolver(self.sim, client=self.client_device)
        self.resolver.add_zone(self.zone)
        for hpop in self.hpops:
            fqdn = f"{hpop.host.name}.home"
            self.zone.add(fqdn, hpop.host.address, ttl=30.0)
            self.resolver.resolve(fqdn)  # warm cache: restarts must evict
            hpop.install(ControlAgent(self.controller, fqdn=fqdn))
        self.controller.add_rule(nocdn_rerank_rule(
            self.provider, self.loader, quarantine_s=quarantine_s))
        self.controller.add_rule(attic_repair_rule(self.owner))
        self.controller.add_rule(attic_probe_rule(self.owner, self.loader))
        self.controller.add_rule(attic_migrate_rule(self.owner))
        self.controller.add_rule(reregister_rule(
            self.zone, resolvers=[self.resolver]))
        self.slo_monitor.add_listener(self.controller.on_slo_event)
        self.owner.add_peer_listener(self.controller.on_peer_event)
        self.tsdb.add_registry(self.controller.metrics, source="control")
        return self.controller

    def start_redundancy_probe(self, interval: float = 0.25):
        """Sample attic redundancy on a cadence; records transitions.

        ``redundancy_transitions`` collects ``(t, bool)`` whenever the
        fully-redundant verdict changes — the outage intervals between
        a ``True -> False`` edge and the next ``False -> True`` edge
        are the *injection-to-repair* times the control bench compares
        (the service's own ``time_to_repair_seconds`` clock only starts
        at the death verdict, so it cannot credit faster detection).
        """
        state = {"redundant": None}

        def sample():
            now_redundant = self.attic_fully_redundant()
            if now_redundant != state["redundant"]:
                state["redundant"] = now_redundant
                self.redundancy_transitions.append(
                    (self.sim.now, now_redundant))
            self.sim.schedule(interval, sample, label="chaos.redundancy",
                              weak=True)

        sample()

    def repair_outages(self):
        """Closed (start, duration) outage windows from the probe."""
        outages = []
        down_at = None
        for t, redundant in self.redundancy_transitions:
            if not redundant and down_at is None:
                down_at = t
            elif redundant and down_at is not None:
                outages.append((down_at, t - down_at))
                down_at = None
        return outages

    def seed_attic(self):
        attic = self.owner.hpop.service("attic")
        attic.dav.tree.mkcol_recursive("/u0")
        for i in range(3):
            attic.dav.tree.put(f"/u0/file{i}.dat", size=kib(80),
                               payload="original")
        done = []
        self.owner.backup_all(lambda ok, total: done.append((ok, total)))
        self.sim.run_until(self.sim.now + 30.0)
        assert done == [(3, 3)]

    def apply_churn(self, fraction: float = CHURN_FRACTION,
                    flaps: int = 1, flap_duration: float = 4.0,
                    horizon: float = CHURN_HORIZON):
        t0 = self.sim.now
        victims = [h.host.name for h in self.hpops[1:]]
        plan = FaultPlan.churn(
            victims, fraction, horizon=t0 + horizon,
            rng=self.sim.rng.stream("chaos.plan"),
            downtime=(3.0, 6.0), start=t0 + CHURN_START)
        if fraction > 0 and flaps > 0:
            # A partitioned (but powered) peer: the origin cannot see
            # link state, keeps assigning it, and every load in the
            # window exercises client-side failover.
            plan.add(LinkFlap("hpop-n0h3", at=t0 + 5.0, duration=4.0))
            # Extra flaps (the control bench's repeat offenders) come
            # from their own rng stream so the default flaps=1 plan —
            # and therefore the PR-3 fault log — stays byte-identical.
            if flaps > 1:
                flap_rng = self.sim.rng.stream("chaos.flaps")
                for _ in range(flaps - 1):
                    victim = flap_rng.randrange(1, self.num_peers)
                    at = t0 + CHURN_START + flap_rng.uniform(
                        0.0, max(0.0, horizon - CHURN_START))
                    plan.add(LinkFlap(f"hpop-n0h{victim}", at=at,
                                      duration=flap_duration))
        self.injector.apply(plan)
        return plan

    def schedule_loads(self, num_loads: int = NUM_LOADS,
                       spacing: float = 0.5):
        results, errors = [], []
        t0 = self.sim.now
        for i in range(num_loads):
            url = f"/page{i % 2}"
            self.sim.at(
                t0 + 1.0 + spacing * i,
                lambda u=url: self.loader.load(self.provider, u,
                                               results.append,
                                               errors.append),
                label=f"chaos.load{i}")
        return results, errors

    def run(self, fraction: float = CHURN_FRACTION, flaps: int = 1,
            horizon: float = CHURN_HORIZON, num_loads: int = NUM_LOADS,
            spacing: float = 0.5, run_for: float = RUN_FOR):
        """The chaos run: back up the attic, plan the churn, schedule
        the loads, run ``run_for`` sim seconds past them and close the
        SLO verdicts. Returns ``(plan, results, errors)``."""
        self.seed_attic()
        plan = self.apply_churn(fraction, flaps=flaps, horizon=horizon)
        results, errors = self.schedule_loads(num_loads=num_loads,
                                              spacing=spacing)
        self.sim.run_until(self.sim.now + run_for)
        if self.slo_monitor is not None:
            self.slo_monitor.finish()
        return plan, results, errors

    def export(self, out_dir) -> None:
        """Write the fault log, and the log or profile of every attached
        layer, into ``out_dir`` under the names of :data:`ARTIFACTS`."""
        path = {key: str(pathlib.Path(out_dir) / name)
                for key, name in ARTIFACTS.items()}
        self.injector.export_jsonl(path["faults"])
        if self.tsdb is not None:
            self.tsdb.export_jsonl(path["tsdb"])
        if self.slo_monitor is not None:
            self.slo_monitor.export_jsonl(path["slo"])
        if self.controller is not None:
            self.controller.export_jsonl(path["control"])
        if self.sim.tracer.enabled:
            self.sim.tracer.export_jsonl(path["trace"])
        profiler = self.sim.profiler
        if profiler is not None:
            with open(path["profile"], "w", encoding="utf-8") as fh:
                json.dump(profiler.to_dict(), fh, indent=2, sort_keys=True)
            profiler.export_collapsed(path["collapsed"])

    def attic_fully_redundant(self) -> bool:
        by_name = {b.owner_name: b for b in self.backups}
        for entry in self.owner.manifest.values():
            if len(entry.shard_holders) != self.owner.k + self.owner.m:
                return False
            for index, holder_name in enumerate(entry.shard_holders):
                holder = by_name[holder_name]
                if not holder.hpop.running:
                    return False
                if not any(key[1] == entry.path and key[2] == index
                           for key in holder.held_shards):
                    return False
        return True


def run_chaos(seed: int, export_path=None, fraction: float = CHURN_FRACTION,
              num_peers: int = NUM_PEERS, telemetry: bool = False,
              controller: bool = False, num_loads: int = NUM_LOADS,
              spacing: float = 0.5, flaps: int = 1,
              horizon: float = CHURN_HORIZON, strategy: str = None,
              sampling: float = None, exemplars: bool = False):
    world = ChaosWorld(seed, num_peers=num_peers, strategy=strategy)
    if sampling is not None:
        world.sim.enable_tracing(capacity=262144)
        world.enable_sampling(rate=sampling)
    if telemetry or controller or exemplars:
        world.enable_telemetry(exemplars=exemplars)
    if controller:
        world.enable_controller()
    plan, results, errors = world.run(fraction, flaps=flaps, horizon=horizon,
                                      num_loads=num_loads, spacing=spacing)
    if export_path is not None:
        world.injector.export_jsonl(str(export_path))
    return world, plan, results, errors
