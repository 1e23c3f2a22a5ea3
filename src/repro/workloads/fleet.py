"""Fleet-scale home populations: analytic background load + focus homes.

The paper's collaborative-edge claims (fCDN, cooperative caching) only
bite at neighborhood-to-city scale, but event-simulating 100k homes'
background chatter melts the heap for no analytic gain: idle homes only
matter through the *aggregate* load they put on shared uplinks. This
module splits a fleet into:

- **Focus homes** — fully built topology (home router, devices), fully
  event-simulated. Experiments instrument these.
- **Idle cohorts** — the rest of each neighborhood, represented by one
  :class:`BackgroundAggregate` per neighborhood that draws the cohort's
  per-tick byte total analytically and carries it on the shared uplink.

The aggregation is distributionally exact for the model it replaces: if
each idle home contributes an exponentially distributed byte count per
tick (mean from :meth:`~repro.workloads.traffic.HouseholdProfile.
mean_rates`), the cohort total is Gamma(n, mean) — one RNG draw and one
``carry_span`` instead of ``n`` heap events per tick
(``tests/workloads/test_fleet.py`` holds the draws to those moments).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from repro.metrics.counters import MetricsRegistry
from repro.net.link import Link
from repro.net.topology import City, Home, ServerSite, TopologyBuilder
from repro.obs.rollup import RollupCohort
from repro.obs.sampling import trace_hash
from repro.sim.engine import Process, Simulator
from repro.util.units import gbps, kib
from repro.workloads.traffic import HouseholdProfile


@dataclass(frozen=True)
class FleetSpec:
    """Shape of a fleet: how many homes, how few are event-simulated.

    ``focus_homes`` are distributed into the earliest neighborhoods;
    everything else becomes idle-cohort background. ``tick`` is the
    aggregation cadence in simulated seconds — coarser ticks mean fewer
    events but blockier uplink utilization.
    """

    num_homes: int = 10_000
    homes_per_neighborhood: int = 1_000
    focus_homes: int = 0
    tick: float = 1.0
    uplink_bps: float = gbps(10)
    devices_per_focus_home: int = 1
    focus_hpops: bool = True
    profile: HouseholdProfile = field(default_factory=HouseholdProfile.typical)
    # Per-home metrics for the idle cohorts, held as columns by one
    # RollupCohort per neighborhood (repro.obs.rollup). Off by default:
    # existing fleet scenarios keep their seeded exports byte-identical.
    per_home_metrics: bool = False
    home_metrics_hot: int = 2
    home_metrics_churn: int = 8
    home_metrics_rotate: int = 8
    rollup_k: int = 8
    rollup_every: int = 1

    def __post_init__(self) -> None:
        if self.num_homes <= 0:
            raise ValueError(f"num_homes must be positive: {self.num_homes}")
        if self.homes_per_neighborhood <= 0:
            raise ValueError("homes_per_neighborhood must be positive: "
                             f"{self.homes_per_neighborhood}")
        if not 0 <= self.focus_homes <= self.num_homes:
            raise ValueError(f"focus_homes must be in [0, num_homes]: "
                             f"{self.focus_homes}")
        if self.tick <= 0:
            raise ValueError(f"tick must be positive: {self.tick}")
        if self.home_metrics_hot < 0 or self.home_metrics_churn < 0:
            raise ValueError("home_metrics_hot/churn must be >= 0")
        if self.home_metrics_rotate < 1:
            raise ValueError("home_metrics_rotate must be >= 1: "
                             f"{self.home_metrics_rotate}")
        if self.rollup_k < 1:
            raise ValueError(f"rollup_k must be >= 1: {self.rollup_k}")
        if self.rollup_every < 1:
            raise ValueError(f"rollup_every must be >= 1: {self.rollup_every}")


class BackgroundAggregate:
    """One neighborhood's idle homes as a single analytic traffic source.

    Each tick draws the cohort's down/up byte totals as Gamma(n, mean)
    variates — the exact distribution of ``n`` independent exponential
    per-home contributions — and spreads them over the elapsed span on
    the neighborhood uplink. Runs as a weak periodic process with
    jittered ticks (including the first) so thousands of cohorts never
    synchronize on one timestamp.
    """

    __slots__ = ("sim", "uplink", "num_homes", "tick", "_mean_down_bps",
                 "_mean_up_bps", "_stream", "_process", "_last",
                 "_down_counter", "_up_counter")

    def __init__(self, sim: Simulator, uplink: Link, num_homes: int,
                 profile: HouseholdProfile, tick: float, stream: str,
                 registry: Optional[MetricsRegistry] = None) -> None:
        if num_homes <= 0:
            raise ValueError(f"num_homes must be positive: {num_homes}")
        self.sim = sim
        self.uplink = uplink
        self.num_homes = num_homes
        self.tick = tick
        self._mean_down_bps, self._mean_up_bps = profile.mean_rates()
        self._stream = stream
        self._process = Process(sim, stream)
        self._last = sim.now
        self._down_counter = (registry.counter(
            "bg_bytes_down", "aggregated background downstream bytes")
            if registry is not None else None)
        self._up_counter = (registry.counter(
            "bg_bytes_up", "aggregated background upstream bytes")
            if registry is not None else None)

    def start(self) -> "BackgroundAggregate":
        self._last = self.sim.now
        self._process.every(self.tick, self._tick, label=self._stream,
                            jitter_stream=f"{self._stream}.jitter")
        return self

    def stop(self) -> None:
        self._process.stop()

    def _tick(self) -> None:
        now = self.sim.now
        span = now - self._last
        if span <= 0:
            return
        rng = self.sim.rng.stream(self._stream)
        n = self.num_homes
        # Gamma(n, m) == the sum of n iid Exponential(m) draws, i.e.
        # exactly what n per-home events (each with per-tick mean m
        # bytes) would have contributed.
        down_bytes = rng.gammavariate(n, self._mean_down_bps * span / 8)
        up_bytes = rng.gammavariate(n, self._mean_up_bps * span / 8)
        # uplink = connect(agg, core): forward is agg->core (upstream),
        # reverse is core->agg (downstream toward the homes).
        self.uplink.reverse.carry_span(self._last, now, down_bytes)
        self.uplink.forward.carry_span(self._last, now, up_bytes)
        if self._down_counter is not None:
            self._down_counter.inc(down_bytes)
            self._up_counter.inc(up_bytes)
        self._last = now


# A home's metrics, in the order its own rows are written; the pool
# writes them by position.
HOME_METRICS = (("home.wan_bytes_down", "counter"),
                ("home.wan_bytes_up", "counter"),
                ("home.devices_online", "gauge"))
_DOWN, _UP, _DEVICES = range(len(HOME_METRICS))


class HomeMetricsPool:
    """Per-home metrics for one idle cohort, rollup-governed.

    The cardinality governor (:mod:`repro.obs.rollup`) needs something
    to govern: per-home metrics with skewed activity. Each represented
    home is one slot in its cohort's columns (WAN byte counters plus a
    devices gauge, :data:`HOME_METRICS`) that the pool advances
    deterministically every tick — pure
    :func:`~repro.obs.sampling.trace_hash` arithmetic, no RNG, so the
    fold inputs (and therefore the rollup rows and sketch state) never
    depend on scheduling. No per-home object exists.

    Activity is deliberately skewed so the top-k sketch has something
    to find: ``hot`` hash-chosen homes mutate every tick with large
    per-home weights (the heavy hitters the sketch must surface) while
    the rest mutate in a slice of ``churn`` homes that rotates every
    ``rotate`` ticks — which also bounds each fold to O(hot + churn)
    members instead of O(n).
    """

    __slots__ = ("sim", "cohort", "num_homes", "tick", "_hot", "_churn",
                 "_rotate", "_salt", "_stream", "_process", "_ticks",
                 "_steps")

    def __init__(self, sim: Simulator, index: int, num_homes: int,
                 tick: float = 1.0, hot: int = 2, churn: int = 8,
                 rotate: int = 8, k: int = 8, every: int = 1) -> None:
        if num_homes <= 0:
            raise ValueError(f"num_homes must be positive: {num_homes}")
        if rotate < 1:
            raise ValueError(f"rotate must be >= 1: {rotate}")
        self.sim = sim
        self.num_homes = num_homes
        self.tick = tick
        self._rotate = rotate
        self._salt = index
        self._stream = f"fleet.pool{index}"
        self._process = Process(sim, self._stream)
        self._ticks = 0
        self.cohort = RollupCohort(f"n{index}", num_homes, HOME_METRICS,
                                   k=k, every=every)
        # The hot set is the `hot` smallest home indices by hash order —
        # a pure function of (index, salt), stable across runs.
        ranked = sorted(range(num_homes),
                        key=lambda i: (trace_hash(i, self._salt), i))
        self._hot = ranked[:min(hot, num_homes)]
        self._churn = min(churn, num_homes)
        self._steps = array("d", (1 + trace_hash(i, self._salt + 1) % 7
                                  for i in range(num_homes)))

    def start(self) -> "HomeMetricsPool":
        self._process.every(self.tick, self._tick, label=self._stream)
        return self

    def stop(self) -> None:
        self._process.stop()

    def _bump(self, home: int, heavy: bool) -> None:
        cohort = self.cohort
        step = self._steps[home]
        if heavy:
            # Three mutations per tick against one: mutation counts are
            # the loudness signal the sketch ranks on.
            cohort.inc(_DOWN, home, step * 4096.0)
            cohort.inc(_UP, home, step * 512.0)
            cohort.set(_DEVICES, home, float(1 + (self._ticks + home) % 4))
        else:
            cohort.inc(_DOWN, home, step * 128.0)

    def _tick(self) -> None:
        for home in self._hot:
            self._bump(home, heavy=True)
        if self._churn:
            # The churn slice advances once per `rotate` ticks, not
            # every tick: a churning home stays active long enough to
            # be bumped many times per rollup fold, the same way a real
            # busy home emits many updates per collection interval.
            base = (self._ticks // self._rotate) * self._churn
            for j in range(self._churn):
                self._bump((base + j) % self.num_homes, heavy=False)
        self._ticks += 1


class FocusRequestLoad:
    """Seeded HTTP request load from focus-home devices.

    Gives the observability stack real traces to decide on: each
    request runs under a ``focus.request`` root span whose children are
    the client's ``http.request`` spans (error attrs on timeout), and
    latencies land in this registry's histogram — with trace-id
    exemplars when an :class:`~repro.obs.sampling.ExemplarStore` is
    attached via :attr:`exemplars`.

    Most requests hit the origin site's ``/page`` route; every
    ``slow_every``-th request hits ``/slow`` (the origin stalls it for
    ``slow_delay`` sim-seconds, making the trace slow-flagged), and
    every ``peer_every``-th targets a focus home's HPoP instead — crash
    or flap that HPoP with the fault injector and the affected requests
    become the error traces the tail sampler must always keep.
    """

    def __init__(self, fleet: "Fleet", requests: int = 200,
                 spacing: float = 0.25, timeout: float = 2.0,
                 slow_every: int = 0, slow_delay: float = 0.0,
                 peer_every: int = 0, page_bytes: int = kib(16)) -> None:
        if requests < 0:
            raise ValueError(f"requests must be >= 0: {requests}")
        if spacing <= 0:
            raise ValueError(f"spacing must be positive: {spacing}")
        if not fleet.focus:
            raise ValueError("FocusRequestLoad needs at least 1 focus home")
        from repro.http.client import HttpClient
        from repro.http.messages import HttpRequest, ok
        from repro.http.server import HttpServer

        self.fleet = fleet
        self.sim = fleet.sim
        self.requests = requests
        self.spacing = spacing
        self.timeout = timeout
        self.slow_every = slow_every
        self.peer_every = peer_every
        self.results: List[Any] = []
        self.errors: List[Any] = []
        self.exemplars: Optional[Any] = None
        self.metrics = MetricsRegistry(namespace="focusload")
        self._ok = self.metrics.counter("requests_ok", "responses received")
        self._failed = self.metrics.counter("requests_failed",
                                            "requests that errored out")
        self._latency = self.metrics.histogram("request_seconds",
                                               "request round-trip time")
        self._request_cls = HttpRequest

        network = fleet.city.network
        origin_host = fleet.city.server_sites["origin"].servers[0]
        self.origin = HttpServer(origin_host, name="focus-origin")
        self.origin.route("/page", lambda req: ok(body_size=page_bytes))
        if slow_every:
            def stall(req: Any, respond: Callable[[Any], None]) -> None:
                self.sim.schedule(slow_delay,
                                  lambda: respond(ok(body_size=page_bytes)),
                                  label="focus-origin.slow")
            self.origin.route_async("/slow", stall)
        # Every focus HPoP also serves /page so peer-targeted requests
        # succeed until a fault takes the HPoP down.
        self.peer_hosts: List[Any] = []
        if peer_every:
            for home in fleet.focus:
                server = HttpServer(home.hpop_host,
                                    name=f"{home.hpop_host.name}:80")
                server.route("/page", lambda req: ok(body_size=page_bytes))
                self.peer_hosts.append(home.hpop_host)
        self.clients = [HttpClient(home.devices[0], network,
                                   timeout=timeout)
                        for home in fleet.focus if home.devices]
        if not self.clients:
            raise ValueError("focus homes have no devices to drive load")

    def start(self) -> "FocusRequestLoad":
        t0 = self.sim.now
        for i in range(self.requests):
            self.sim.at(t0 + (i + 1) * self.spacing,
                        (lambda index=i: self._fire(index)),
                        label=f"focus.load{i}")
        return self

    def _fire(self, index: int) -> None:
        tracer = self.sim.tracer
        client = self.clients[index % len(self.clients)]
        path = "/page"
        if self.peer_every and index % self.peer_every == self.peer_every - 1:
            # Rotate by peer-request ordinal, not raw index: index is
            # congruent mod peer_every here, so indexing by it would
            # visit only a residue class of the peer list.
            target = self.peer_hosts[
                (index // self.peer_every) % len(self.peer_hosts)]
        else:
            target = self.origin.host
            if (self.slow_every
                    and index % self.slow_every == self.slow_every - 1):
                path = "/slow"
        span = tracer.start_span("focus.request", parent=None,
                                 index=index, target=target.name, path=path)
        started = self.sim.now

        def on_response(resp: Any, stats: Any) -> None:
            took = self.sim.now - started
            self._ok.inc()
            if self.exemplars is not None:
                self._latency.observe(took, exemplar=span.trace_id)
                self.exemplars.record("focusload.request_seconds", took,
                                      span.trace_id)
            else:
                self._latency.observe(took)
            self.results.append((index, resp.status))
            span.finish(status=resp.status)

        def on_error(err: Any) -> None:
            self._failed.inc()
            self.errors.append((index, str(err)))
            span.finish(error=str(err) or "request failed")

        with tracer.activate(span):
            client.request(target,
                           self._request_cls("GET", path),
                           on_response, on_error=on_error)


@dataclass
class Fleet:
    """A built fleet: city topology, focus homes, background aggregates."""

    spec: FleetSpec
    city: City
    focus: List[Home]
    aggregates: List[BackgroundAggregate]
    registry: MetricsRegistry
    pools: List[HomeMetricsPool] = field(default_factory=list)

    @property
    def sim(self) -> Simulator:
        return self.city.sim

    @property
    def idle_homes(self) -> int:
        return self.spec.num_homes - len(self.focus)

    def start(self) -> "Fleet":
        """Begin all background aggregation (and metric-pool) ticks."""
        for aggregate in self.aggregates:
            aggregate.start()
        for pool in self.pools:
            pool.start()
        return self

    def stop(self) -> None:
        for aggregate in self.aggregates:
            aggregate.stop()
        for pool in self.pools:
            pool.stop()

    def attach_rollups(self, tsdb: Any) -> List[RollupCohort]:
        """Register every pool's cohort with ``tsdb`` (add_rollup)."""
        cohorts = [pool.cohort for pool in self.pools]
        for cohort in cohorts:
            tsdb.add_rollup(cohort)
        return cohorts


def build_fleet(sim: Simulator, spec: FleetSpec) -> Fleet:
    """Build a fleet-scale city: hollow neighborhoods + focus homes.

    Memory scales with *neighborhoods* plus focus homes, not with
    ``num_homes``: a 100k-home fleet with 10 focus homes builds ~100
    aggregation routers, 10 real homes, and 100 analytic cohorts.
    """
    builder = TopologyBuilder(sim)
    core = builder.build_core(num_routers=3)
    registry = MetricsRegistry(namespace="fleet")
    neighborhoods = []
    aggregates: List[BackgroundAggregate] = []
    pools: List[HomeMetricsPool] = []
    focus: List[Home] = []
    remaining = spec.num_homes
    focus_left = spec.focus_homes
    index = 0
    while remaining > 0:
        cohort = min(spec.homes_per_neighborhood, remaining)
        focus_here = min(focus_left, cohort)
        neighborhood = builder.build_neighborhood(
            core[index % len(core)], index, num_homes=focus_here,
            uplink_bps=spec.uplink_bps,
            devices_per_home=spec.devices_per_focus_home,
            with_hpops=spec.focus_hpops,
        )
        neighborhoods.append(neighborhood)
        focus.extend(neighborhood.homes)
        idle = cohort - focus_here
        if idle:
            aggregates.append(BackgroundAggregate(
                sim, neighborhood.uplink, idle, spec.profile, spec.tick,
                stream=f"fleet.bg{index}", registry=registry))
            if spec.per_home_metrics:
                pools.append(HomeMetricsPool(
                    sim, index, idle, tick=spec.tick,
                    hot=spec.home_metrics_hot,
                    churn=spec.home_metrics_churn,
                    rotate=spec.home_metrics_rotate,
                    k=spec.rollup_k, every=spec.rollup_every))
        remaining -= cohort
        focus_left -= focus_here
        index += 1
    site = builder.build_server_site(core[1 % len(core)], "origin")
    city = City(network=builder.network, core_routers=core,
                neighborhoods=neighborhoods,
                server_sites={"origin": site})
    registry.gauge("homes_total", "homes represented").set(spec.num_homes)
    registry.gauge("homes_focus", "event-simulated homes").set(len(focus))
    registry.gauge("neighborhoods", "aggregation cohorts").set(index)
    return Fleet(spec=spec, city=city, focus=focus, aggregates=aggregates,
                 registry=registry, pools=pools)
