"""The Internet@home service: "a local copy of the Internet" (SIV-D).

Installed on an HPoP, the service:

- records the household's browsing history and profiles it,
- periodically *gathers*: keeps the top ``aggressiveness`` fraction of
  visited pages fresh in a local cache (full fetch on miss, conditional
  GET on expiry — the freshness-vs-scope tradeoff),
- holds site credentials in a vault to gather deep-web content,
- runs attic triggers that turn data-attic contents into gather targets,
- optionally routes gathering through a :class:`DemandSmoother`,
- optionally participates in a neighborhood cooperative cache
  (:class:`CoopGroup`) that partitions gathering across HPoPs and
  serves neighbors laterally, avoiding duplicate upstream retrievals.

Devices in the home fetch through the HPoP (routes ``/iah/...``); cache
hits are served at LAN latency — the mechanism by which "copious
bandwidth within ultrabroadband networks lowers users' perceived delay".
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.hpop.core import Hpop, HpopService
from repro.http.cache import CacheDisposition, HttpCache
from repro.http.client import HttpClient, fan_in
from repro.http.content import WebObject, WebPage
from repro.http.messages import HttpRequest, HttpResponse, not_found, ok
from repro.iah.deepweb import AtticTrigger, CredentialVault, GatherTarget
from repro.iah.history import BrowsingHistory, InterestProfile
from repro.iah.smoothing import DemandSmoother
from repro.iah.web import Website
from repro.metrics.counters import MetricsRegistry
from repro.util.units import gib

OBJECT_ROUTE = "/iah/object"
PAGE_ROUTE = "/iah/page"
VISIT_ROUTE = "/iah/visit"
PEER_ROUTE = "/iah/peer"
# Shorter than a device's own request timeout, so an unreachable
# upstream degrades to a stale serve before the device gives up.
UPSTREAM_TIMEOUT = 10.0


@dataclass
class GatherStats:
    """Outcome counters for gathering and serving."""

    rounds: int = 0
    full_fetches: int = 0
    revalidations: int = 0
    revalidated_unchanged: int = 0
    upstream_bytes: float = 0.0
    upstream_requests: int = 0
    local_hits: int = 0
    local_misses: int = 0
    lateral_fetches: int = 0
    lateral_bytes: float = 0.0
    lateral_served: int = 0
    degraded_serves: int = 0


class InternetAtHomeService(HpopService):
    """Install on an HPoP to get history-driven local Internet copies."""

    name = "internet-at-home"

    def __init__(
        self,
        cache_bytes: int = gib(4),
        aggressiveness: float = 0.5,
        gather_interval: float = 300.0,
        smoother: Optional[DemandSmoother] = None,
    ) -> None:
        super().__init__()
        if not 0 <= aggressiveness <= 1:
            raise ValueError("aggressiveness must be in [0, 1]")
        self.cache_bytes = cache_bytes
        self.aggressiveness = aggressiveness
        self.gather_interval = gather_interval
        self.smoother = smoother
        self.history = BrowsingHistory()
        self.profile = InterestProfile(self.history)
        self.vault = CredentialVault()
        self.triggers: List[AtticTrigger] = []
        # Standing subscriptions: deep-web/personal objects gathered every
        # round regardless of page history ("constantly collect comments
        # on user's Facebook page", SIV-D).
        self.subscriptions: List[GatherTarget] = []
        self.stats = GatherStats()
        self.group: Optional["CoopGroup"] = None
        self._sites: Dict[str, Website] = {}
        self._page_meta: Dict[Tuple[str, str], WebPage] = {}
        self._cache: Optional[HttpCache] = None
        self._client: Optional[HttpClient] = None
        self.metrics = MetricsRegistry(namespace="iah")
        self._h_serve_age = self.metrics.histogram(
            "serve_age_seconds",
            help="Age of prefetched entries at fresh-serve time")
        self._c_serves = self.metrics.counter(
            "objects_served", help="Device requests answered")
        self._c_degraded = self.metrics.counter(
            "degraded_serves",
            help="Stale entries served because the upstream was unreachable")

    # -- lifecycle --------------------------------------------------------

    def on_install(self, hpop: Hpop) -> None:
        # Cache hit/miss counters land in this service's registry.
        self._cache = HttpCache(self.cache_bytes, metrics=self.metrics)
        self._client = HttpClient(hpop.host, hpop.network)
        hpop.http.route_async(OBJECT_ROUTE, self._serve_object)
        hpop.http.route(PAGE_ROUTE, self._serve_page_meta)
        hpop.http.route(VISIT_ROUTE, self._record_visit_route)
        hpop.http.route_async(PEER_ROUTE, self._serve_peer)

    def on_start(self) -> None:
        if self.gather_interval > 0:
            self.hpop.every(self.gather_interval, self.gather,
                            label=f"{self.hpop.name}.gather",
                            jitter_stream="iah.gather.jitter")

    # -- configuration ------------------------------------------------------

    def register_site(self, site: Website) -> None:
        self._sites[site.name] = site

    def add_trigger(self, trigger: AtticTrigger) -> None:
        self.triggers.append(trigger)

    def record_visit(self, site: str, url: str) -> None:
        self.history.record(self.sim.now, site, url)

    def subscribe(self, site: str, object_name: str) -> None:
        """Always keep ``object_name`` fresh (deep-web/personal feeds)."""
        target = (site, object_name)
        if target not in self.subscriptions:
            self.subscriptions.append(target)

    @property
    def cache(self) -> HttpCache:
        assert self._cache is not None
        return self._cache

    def _cache_key(self, site: str, object_name: str) -> str:
        return f"{site}|{object_name}"

    # -- gathering ---------------------------------------------------------------

    def personal_targets(self) -> List[GatherTarget]:
        """Targets that must never be delegated to (or served by) a
        neighbor: trigger-derived objects and standing subscriptions."""
        attic = (self.hpop.service("attic")
                 if self.hpop and self.hpop.has_service("attic") else None)
        personal: List[GatherTarget] = []
        seen = set()
        for trigger in self.triggers:
            for target in trigger.derive(attic):
                if target not in seen:
                    seen.add(target)
                    personal.append(target)
        for target in self.subscriptions:
            if target not in seen:
                seen.add(target)
                personal.append(target)
        return personal

    def gather_targets(self) -> List[GatherTarget]:
        """Objects the current profile + triggers say to keep locally."""
        targets: List[GatherTarget] = []
        seen = set()
        for site, url in self.profile.target_set(self.sim.now,
                                                 self.aggressiveness):
            page = self._page_meta.get((site, url))
            if page is None:
                # Meta unknown: mark the page for metadata fetch.
                targets.append((site, f"__page__{url}"))
                continue
            for obj in page.all_objects():
                key = (site, obj.name)
                if key not in seen:
                    seen.add(key)
                    targets.append(key)
        for target in self.personal_targets():
            if target not in seen:
                seen.add(target)
                targets.append(target)
        return targets

    def gather(self, on_done: Optional[Callable[[], None]] = None) -> None:
        """One gathering round over the current target set."""
        if not self.running:
            if on_done is not None:
                self.sim.call_soon(on_done, label="iah.gather.skip")
            return
        self.stats.rounds += 1
        targets = self.gather_targets()
        span = self.sim.tracer.start_span("iah.gather", targets=len(targets))
        if not targets:
            span.finish()
            if on_done is not None:
                self.sim.call_soon(on_done, label="iah.gather.empty")
            return

        def all_done(_answers) -> None:
            span.finish()
            if on_done is not None:
                on_done()

        one_done = fan_in(len(targets), all_done)
        with self.sim.tracer.activate(span):
            for site, object_name in targets:
                if object_name.startswith("__page__"):
                    self._fetch_page_meta(site, object_name[len("__page__"):],
                                          one_done)
                else:
                    self._gather_object(site, object_name, one_done)

    def _gather_object(self, site: str, object_name: str,
                       done: Callable[[], None]) -> None:
        personal = (site, object_name) in set(self.personal_targets())
        if self.group is not None and not personal:
            responsible = self.group.responsible_for(site, object_name)
            if responsible is not self:
                done()  # a neighbor gathers this one
                return
        disposition, entry = self.cache.lookup(
            self._cache_key(site, object_name), self.sim.now)
        if disposition is CacheDisposition.FRESH:
            done()
            return

        def run_fetch() -> None:
            self._fetch_upstream(site, object_name, entry,
                                 lambda _resp: done())

        size_estimate = entry.obj.size if entry is not None else 50_000
        if self.smoother is not None:
            self.smoother.submit(size_estimate, run_fetch)
        else:
            run_fetch()

    # -- upstream fetching ----------------------------------------------------------

    def _fetch_page_meta(self, site_name: str, url: str,
                         done: Callable[[], None]) -> None:
        site = self._sites.get(site_name)
        if site is None:
            done()
            return

        def got(resp: HttpResponse, _stats) -> None:
            self.stats.upstream_requests += 1
            self.stats.upstream_bytes += resp.wire_size
            if resp.ok and isinstance(resp.body, WebPage):
                self._page_meta[(site_name, url)] = resp.body
            done()

        assert self._client is not None
        self._client.request(
            site.host,
            HttpRequest("GET", f"{site.pages_prefix}{url}", host=site_name),
            got, port=site.port, on_error=lambda exc: done())

    def _fetch_upstream(self, site_name: str, object_name: str,
                        entry, on_done: Callable[[Optional[HttpResponse]], None]) -> None:
        site = self._sites.get(site_name)
        if site is None:
            on_done(None)
            return
        headers = dict(self.vault.auth_headers(site_name))
        if entry is not None:
            headers["If-None-Match"] = entry.obj.etag
            self.stats.revalidations += 1
        else:
            self.stats.full_fetches += 1

        def got(resp: HttpResponse, _stats) -> None:
            self.stats.upstream_requests += 1
            self.stats.upstream_bytes += resp.wire_size
            key = self._cache_key(site_name, object_name)
            ttl = resp.max_age if resp.max_age is not None else site.object_ttl
            if resp.status == 304 and entry is not None:
                entry.stored_at = self.sim.now
                entry.ttl = ttl
                self.stats.revalidated_unchanged += 1
                self.cache.revalidations += 1
            elif resp.ok and isinstance(resp.body, WebObject):
                self.cache.store(resp.body, self.sim.now, ttl=ttl, key=key)
            on_done(resp)

        assert self._client is not None
        self._client.request(
            site.host,
            HttpRequest("GET", f"{site.objects_prefix}/{object_name}",
                        host=site_name, headers=headers),
            got, port=site.port, timeout=UPSTREAM_TIMEOUT,
            on_error=lambda exc: on_done(None))

    # -- serving devices -----------------------------------------------------------

    def _serve_object(self, request: HttpRequest, respond) -> None:
        body = request.body if isinstance(request.body, dict) else {}
        site_name = body.get("site", "")
        object_name = body.get("object", "")
        if not site_name or not object_name:
            respond(HttpResponse(400, body_size=40))
            return
        key = self._cache_key(site_name, object_name)
        disposition, entry = self.cache.lookup(key, self.sim.now)
        self._c_serves.inc()
        if disposition is CacheDisposition.FRESH:
            self.stats.local_hits += 1
            # How stale was the prefetched copy when a device wanted it?
            self._h_serve_age.observe(self.sim.now - entry.stored_at)
            obj = entry.obj
            respond(ok(body_size=obj.size, body=obj,
                       headers={"X-Cache": "hit"}))
            return
        self.stats.local_misses += 1

        # Cooperative path: ask the responsible neighbor before the WAN.
        if self.group is not None:
            responsible = self.group.responsible_for(site_name, object_name)
            if responsible is not self and responsible.reachable_from(self):
                self._lateral_fetch(responsible, site_name, object_name,
                                    entry, respond)
                return
        self._demand_fetch(site_name, object_name, entry, disposition, respond)

    def _demand_fetch(self, site_name, object_name, entry, disposition,
                      respond) -> None:
        def done(resp: Optional[HttpResponse]) -> None:
            if resp is None:
                if entry is not None:
                    # Upstream unreachable but we hold an expired copy:
                    # serve it, clearly marked stale, instead of failing
                    # the device — "a local copy of the Internet" keeps
                    # working through the outage.
                    self.stats.degraded_serves += 1
                    self._c_degraded.inc()
                    self.sim.tracer.start_span(
                        "iah.degraded_serve", site=site_name,
                        object=object_name,
                        age=self.sim.now - entry.stored_at).finish()
                    respond(ok(body_size=entry.obj.size, body=entry.obj,
                               headers={"X-Cache": "stale",
                                        "Warning": "110 - response is stale"}))
                    return
                respond(HttpResponse(502, body_size=40, body="origin down"))
                return
            if resp.status == 304 and entry is not None:
                respond(ok(body_size=entry.obj.size, body=entry.obj,
                           headers={"X-Cache": "revalidated"}))
            elif resp.ok and isinstance(resp.body, WebObject):
                respond(ok(body_size=resp.body.size, body=resp.body,
                           headers={"X-Cache": "miss"}))
            else:
                respond(HttpResponse(resp.status, body_size=40))

        self._fetch_upstream(site_name, object_name, entry, done)

    def _lateral_fetch(self, responsible: "InternetAtHomeService",
                       site_name, object_name, entry, respond) -> None:
        self.stats.lateral_fetches += 1

        def got(resp: HttpResponse, _stats) -> None:
            if resp.ok and isinstance(resp.body, WebObject):
                self.stats.lateral_bytes += resp.body_size
                respond(ok(body_size=resp.body.size, body=resp.body,
                           headers={"X-Cache": "lateral"}))
            else:
                # Neighbor could not help; go upstream ourselves (a
                # stale local entry still backstops a dead upstream).
                self._demand_fetch(site_name, object_name, entry, None,
                                   respond)

        assert self._client is not None
        self._client.request(
            responsible.hpop.host,
            HttpRequest("POST", PEER_ROUTE,
                        body={"site": site_name, "object": object_name},
                        body_size=150),
            got, port=443,
            on_error=lambda exc: self._demand_fetch(
                site_name, object_name, entry, None, respond))

    def _serve_peer(self, request: HttpRequest, respond) -> None:
        """Serve a neighbor: local cache, or upstream if we are responsible."""
        body = request.body if isinstance(request.body, dict) else {}
        site_name = body.get("site", "")
        object_name = body.get("object", "")
        key = self._cache_key(site_name, object_name)
        disposition, entry = self.cache.lookup(key, self.sim.now)
        if disposition is CacheDisposition.FRESH:
            self.stats.lateral_served += 1
            respond(ok(body_size=entry.obj.size, body=entry.obj))
            return
        if (self.group is not None
                and self.group.responsible_for(site_name, object_name) is self):
            def done(resp: Optional[HttpResponse]) -> None:
                fresh = self.cache.lookup(key, self.sim.now)[1]
                if fresh is not None:
                    self.stats.lateral_served += 1
                    respond(ok(body_size=fresh.obj.size, body=fresh.obj))
                else:
                    respond(not_found(object_name))

            self._fetch_upstream(site_name, object_name, entry, done)
            return
        respond(not_found(object_name))

    def _serve_page_meta(self, request: HttpRequest) -> HttpResponse:
        body = request.body if isinstance(request.body, dict) else {}
        page = self._page_meta.get((body.get("site", ""), body.get("url", "")))
        if page is None:
            return not_found(body.get("url", ""))
        return ok(body_size=600, body=page)

    def _record_visit_route(self, request: HttpRequest) -> HttpResponse:
        body = request.body if isinstance(request.body, dict) else {}
        site, url = body.get("site", ""), body.get("url", "")
        if not site or not url:
            return HttpResponse(400, body_size=40)
        self.record_visit(site, url)
        return ok(body_size=20)

    # -- coop support ------------------------------------------------------------------

    def reachable_from(self, _peer: "InternetAtHomeService") -> bool:
        return self.running and self.hpop.host.powered

    def learn_page(self, site: str, url: str, page: WebPage) -> None:
        """Teach the service a page's structure without a meta fetch."""
        self._page_meta[(site, url)] = page


class CoopGroup:
    """A neighborhood cooperative cache (paper SIV-D "A Cooperative Cache").

    Responsibility for each object is assigned by rendezvous hashing
    over the *alive* members, so gathering is partitioned (duplicate
    upstream retrievals suppressed) and reassigns automatically when a
    member dies.
    """

    def __init__(self) -> None:
        self.members: List[InternetAtHomeService] = []

    def join(self, service: InternetAtHomeService) -> None:
        if service in self.members:
            raise ValueError(f"{service.hpop.name} already in group")
        self.members.append(service)
        service.group = self

    def leave(self, service: InternetAtHomeService) -> None:
        self.members.remove(service)
        service.group = None

    def alive_members(self) -> List[InternetAtHomeService]:
        return [m for m in self.members
                if m.running and m.hpop.host.powered]

    def responsible_for(self, site: str, object_name: str
                        ) -> Optional[InternetAtHomeService]:
        candidates = self.alive_members()
        if not candidates:
            return None

        def weight(member: InternetAtHomeService) -> str:
            return hashlib.sha256(
                f"{member.hpop.name}|{site}|{object_name}".encode()).hexdigest()

        return max(candidates, key=weight)
