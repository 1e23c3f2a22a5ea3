"""Delivery baselines: a traditional CDN and origin-only serving.

NoCDN's benchmark (E6) compares three ways to deliver the same catalog:

- **origin-only** — every client fetches everything from the origin,
- **traditional CDN** — provider-run edge servers with DNS-style
  nearest-edge request routing and origin fill (the middleman NoCDN
  eliminates),
- **NoCDN** — residential HPoP peers (see :mod:`repro.nocdn`).

The edge server reuses the same cache semantics as NoCDN peers, so the
comparison isolates the *structure* (who runs the replicas and how
clients are routed), not cache policy details. Fills and origin-only
loads send :meth:`ContentProvider.object_get`; clients share one page fetch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.http.cache import CacheDisposition, HttpCache
from repro.http.client import HttpClient, PageFetcher
from repro.http.content import WebPage
from repro.http.messages import HttpRequest, HttpResponse, not_found, ok
from repro.http.server import HttpServer
from repro.net.network import Network, NetworkError
from repro.net.node import Host
from repro.nocdn.loader import PageLoadResult
from repro.nocdn.origin import ContentProvider
from repro.nocdn.peer import ChunkBody
from repro.util.units import gib

EDGE_PREFIX = "/cdn"


class CdnEdge:
    """One provider-run edge server: cache + origin fill."""

    def __init__(self, host: Host, provider: ContentProvider,
                 network: Network, cache_bytes: int = gib(1),
                 port: int = 8080) -> None:
        self.host = host
        self.provider = provider
        self.network = network
        self.cache = HttpCache(cache_bytes, default_ttl=provider.object_ttl)
        self.client = HttpClient(host, network)
        self.port = port
        existing = host.stream_listener(port)
        if isinstance(existing, HttpServer):
            self.server = existing
        else:
            self.server = HttpServer(host, port, name=f"edge:{host.name}")
        self.server.route_async(f"{EDGE_PREFIX}/{provider.site_name}",
                                self._serve)
        self.origin_fills = 0

    @property
    def sim(self):
        return self.network.sim

    def _serve(self, request: HttpRequest, respond) -> None:
        prefix = f"{EDGE_PREFIX}/{self.provider.site_name}"
        name = request.path[len(prefix):].lstrip("/")
        if not name:
            respond(not_found(request.path))
            return
        disposition, entry = self.cache.lookup(name, self.sim.now)
        if disposition is CacheDisposition.FRESH:
            obj = entry.obj
            respond(ok(body_size=obj.size,
                       body=ChunkBody(obj=obj, start=0, end=obj.size)))
            return
        self.origin_fills += 1

        def filled(resp: HttpResponse, _stats) -> None:
            if resp.ok and isinstance(resp.body, ChunkBody):
                obj = resp.body.obj
                self.cache.store(obj, self.sim.now)
                respond(ok(body_size=obj.size,
                           body=ChunkBody(obj=obj, start=0, end=obj.size)))
            else:
                respond(not_found(name))

        server, fill, port = self.provider.object_get(name)
        self.client.request(
            server, fill, filled, port=port,
            on_error=lambda exc: respond(
                HttpResponse(502, body_size=60, body="origin down")))


class TraditionalCdn:
    """A provider-run edge fleet with nearest-edge request routing."""

    def __init__(self, provider: ContentProvider, network: Network) -> None:
        self.provider = provider
        self.network = network
        self.edges: List[CdnEdge] = []

    def deploy_edge(self, host: Host, cache_bytes: int = gib(1)) -> CdnEdge:
        edge = CdnEdge(host, self.provider, self.network,
                       cache_bytes=cache_bytes)
        self.edges.append(edge)
        return edge

    def dns_zone(self, origin: Optional[str] = None):
        """An authoritative request-routing zone for this CDN.

        Clients resolving ``www.<site>`` get the address of their
        nearest live edge with a short TTL — classic DNS request routing
        (paper SIV-B [25]).
        """
        from repro.naming.dns import RequestRoutingZone

        def selector(_name: str, client):
            if client is None or not self.edges:
                return None
            try:
                return self.edge_for(client).host.address
            except RuntimeError:
                return None

        return RequestRoutingZone(origin or self.provider.site_name, selector)

    def edge_for(self, client: Host) -> CdnEdge:
        """DNS-style request routing: the lowest-RTT live edge."""
        if not self.edges:
            raise RuntimeError("no edges deployed")

        def rtt(edge: CdnEdge) -> float:
            if not edge.host.powered:
                return float("inf")
            try:
                return self.network.path_between(client, edge.host).rtt
            except NetworkError:
                return float("inf")

        best = min(self.edges, key=rtt)
        if rtt(best) == float("inf"):
            raise RuntimeError("no reachable edge")
        return best


class BaselinePageLoader(PageFetcher):
    """Loads whole pages via an edge fleet or straight from the origin."""

    def load_via_origin(self, provider: ContentProvider, url: str,
                        on_done: Callable[[PageLoadResult], None]) -> None:
        """Origin-only delivery of the full page."""
        page = provider.catalog.page(url)
        if page is None:
            raise KeyError(f"no page {url} at {provider.site_name}")
        self._load(page, lambda obj: provider.object_get(obj.name),
                   origin_side=True, on_done=on_done)

    def load_via_cdn(self, cdn: TraditionalCdn, url: str,
                     on_done: Callable[[PageLoadResult], None]) -> None:
        """Traditional-CDN delivery: all objects from the nearest edge."""
        page = cdn.provider.catalog.page(url)
        if page is None:
            raise KeyError(f"no page {url} at {cdn.provider.site_name}")
        edge = cdn.edge_for(self.device)
        prefix = f"{EDGE_PREFIX}/{cdn.provider.site_name}"
        self._load(
            page,
            lambda obj: (edge.host, HttpRequest("GET", f"{prefix}/{obj.name}"),
                         edge.port),
            origin_side=False, on_done=on_done)

    def _load(self, page: WebPage, target_for, origin_side: bool,
              on_done) -> None:
        """Fetch the whole page; its bytes count as the origin's or the
        replicas' by ``origin_side``."""
        result = PageLoadResult(url=page.url, started_at=self.sim.now,
                                completed_at=self.sim.now,
                                object_count=page.object_count,
                                direct_mode=origin_side)

        def account(obj, resp) -> None:
            if resp is None or not resp.ok:
                result.missing.append(obj.name)
            elif origin_side:
                result.bytes_from_origin += resp.body_size
            else:
                result.bytes_from_peers += resp.body_size

        def done() -> None:
            result.completed_at = self.sim.now
            on_done(result)

        self._fetch_all(list(page.all_objects()), target_for, account, done)
