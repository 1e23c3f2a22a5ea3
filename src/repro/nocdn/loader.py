"""The client-side NoCDN loader (the "loader script" of paper Fig. 2).

Runs in an unmodified browser in the real system; here it is the state
machine driving one page load:

1. fetch the wrapper page from the origin (plus the cacheable loader
   script on first use),
2. fetch every object/chunk from its assigned peer, in parallel,
3. verify each object's SHA-256 against the wrapper's hash; corrupted
   or failed objects are re-fetched from the origin and the peer is
   reported,
4. assemble the page, fire the completion callback,
5. transfer signed usage records to each peer that served verified bytes.

Every request goes through one site, :meth:`PageLoader._request`:
origin GETs the provider builds, peer chunk GETs (``_peer_get``) and
fire-and-forget POSTs (``_post``). A directly served page uses the
shared page fetch (:class:`repro.http.client.PageFetcher`). Only a peer
that served verified bytes is credited.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.http.client import PageFetcher, Target, fan_in
from repro.http.content import WebPage
from repro.http.messages import HttpRequest
from repro.metrics.counters import MetricsRegistry
from repro.net.network import Network
from repro.net.node import Host
from repro.nocdn.origin import ContentProvider
from repro.nocdn.peer import CONTENT_PREFIX, USAGE_PREFIX, ChunkBody
from repro.nocdn.records import make_record
from repro.nocdn.wrapper import ChunkAssignment, WrapperPage
from repro.util.crypto import derive_payload, sha256_hex


@dataclass
class PageLoadResult:
    """What one page load produced."""

    url: str
    started_at: float
    completed_at: float
    object_count: int = 0
    bytes_from_peers: int = 0
    bytes_from_origin: int = 0
    corrupted: List[Tuple[str, str]] = field(default_factory=list)  # (object, peer)
    peer_failures: List[Tuple[str, str]] = field(default_factory=list)
    direct_mode: bool = False
    wrapper_bytes: int = 0

    @property
    def duration(self) -> float:
        return self.completed_at - self.started_at

    @property
    def total_bytes(self) -> int:
        return self.bytes_from_peers + self.bytes_from_origin


@dataclass
class _Slot:
    """A work item, its bytes and who served them (``None``: the origin)."""

    item: ChunkAssignment
    body: Optional[ChunkBody] = None
    server: Optional[str] = None


class PageLoader(PageFetcher):
    """One browser-equivalent on a client device.

    ``peer_timeout`` bounds each peer fetch: a peer that does not
    answer within it is treated as failed and the loader fails over to
    the wrapper's next-ranked fallback peer, then to the origin. It is
    deliberately much shorter than the client's default 30 s timeout —
    the whole point of the failover chain is that a dead peer costs one
    short timeout, not a hung page load.
    """

    def __init__(self, device: Host, network: Network,
                 peer_timeout: float = 5.0) -> None:
        super().__init__(device, network)
        self.peer_timeout = peer_timeout
        self._loader_cached: Set[str] = set()
        self.records_sent = 0
        self.loads_completed = 0
        # Cumulative chunk-fetch failures by serving peer: the control
        # plane diffs this between alerts to find who is failing *now*.
        self.peer_failure_counts: Dict[str, int] = {}
        # Optional repro.obs.sampling.ExemplarStore: when attached,
        # page-load observations carry their trace id so SLO alerts can
        # link to the worst request's trace.
        self.exemplars = None
        self.metrics = MetricsRegistry(namespace="nocdn")
        self._page_load_time = self.metrics.histogram(
            "page_load_seconds", help="Wrapper fetch to full assembly")
        self._c_peer_bytes = self.metrics.counter(
            "bytes_from_peers", help="Verified bytes served by peer HPoPs")
        self._c_origin_bytes = self.metrics.counter(
            "bytes_from_origin", help="Bytes served by the origin")
        self._c_peer_failovers = self.metrics.counter(
            "peer_failovers",
            help="Chunk fetches retried against a fallback peer")
        self._c_origin_fallbacks = self.metrics.counter(
            "origin_fallbacks",
            help="Chunk fetches recovered from the origin after peers failed")
        self._c_chunk_fetches = self.metrics.counter(
            "chunk_fetches",
            help="Chunk fetch attempts issued against peer HPoPs")
        self._c_chunk_failures = self.metrics.counter(
            "chunk_fetch_failures",
            help="Peer chunk fetches that failed or timed out")

    # -- public API -------------------------------------------------------

    def load(
        self,
        provider: ContentProvider,
        url: str,
        on_done: Callable[[PageLoadResult], None],
        on_error: Optional[Callable[[Exception], None]] = None,
    ) -> None:
        started = self.sim.now
        span = self.sim.tracer.start_span("nocdn.page_load", url=url,
                                          site=provider.site_name)
        inner_done = on_done

        def on_done(result: PageLoadResult) -> None:
            if self.exemplars is not None:
                self._page_load_time.observe(result.duration,
                                             exemplar=span.trace_id)
                self.exemplars.record("nocdn.page_load_seconds",
                                      result.duration, span.trace_id)
            else:
                self._page_load_time.observe(result.duration)
            self._c_peer_bytes.inc(result.bytes_from_peers)
            self._c_origin_bytes.inc(result.bytes_from_origin)
            span.finish(direct=result.direct_mode,
                        objects=result.object_count,
                        bytes=result.total_bytes)
            inner_done(result)

        def fail(exc) -> None:
            span.finish(error=str(exc))
            if on_error is not None:
                on_error(exc if isinstance(exc, Exception)
                         else RuntimeError(str(exc)))

        def got_wrapper(resp, _stats) -> None:
            if not resp.ok:
                fail(RuntimeError(f"wrapper fetch -> {resp.status}"))
                return
            if isinstance(resp.body, WebPage):
                self._direct_load(provider, resp.body, started, resp.body_size,
                                  on_done)
            elif isinstance(resp.body, WrapperPage):
                self._wrapped_load(provider, resp.body, started,
                                   resp.body_size, on_done, fail)
            else:
                fail(RuntimeError("unrecognized wrapper response"))

        def fetch_wrapper() -> None:
            self._request(provider.target(
                "GET", f"{provider.wrapper_prefix}{url}",
                headers={"X-Client-Host": self.device.name}),
                got_wrapper, fail)

        with self.sim.tracer.activate(span):
            if provider.site_name not in self._loader_cached:
                # First visit: also pull the generic loader script (cacheable).
                def got_loader(resp, _stats) -> None:
                    if resp.ok:
                        self._loader_cached.add(provider.site_name)
                    fetch_wrapper()

                self._request(provider.target("GET",
                                              provider.loader_script_path),
                              got_loader, fail)
            else:
                fetch_wrapper()

    # -- the one request site and its verbs ---------------------------------

    def _request(self, target: Target, on_response, on_error,
                 timeout: Optional[float] = None) -> None:
        """The one request site; an origin GET is a provider-built
        ``target`` sent as it is."""
        server, request, port = target
        self.client.request(server, request, on_response, port=port,
                            on_error=on_error, timeout=timeout)

    def _peer_get(self, endpoint, path: str, byte_range, etag: str,
                  on_response, on_error) -> None:
        """GET ``path`` (its ``byte_range``) from the peer at
        ``endpoint``, ``If-Match`` the version the wrapper hashed; no
        answer within ``peer_timeout`` is a failure."""
        address, port = endpoint
        self._request((address,
                       HttpRequest("GET", path, range=byte_range,
                                   headers={"If-Match": etag}),
                       port), on_response, on_error, self.peer_timeout)

    def _post(self, target: Target) -> None:
        """Fire and forget: usage records, corruption reports."""
        self._request(target, lambda *_: None, lambda *_: None)

    # -- direct (no peers) mode ---------------------------------------------

    def _direct_load(self, provider, page: WebPage, started, container_bytes,
                     on_done) -> None:
        result = PageLoadResult(url=page.url, started_at=started,
                                completed_at=started, direct_mode=True,
                                object_count=page.object_count,
                                bytes_from_origin=container_bytes)

        def account(resp) -> None:
            if resp.ok:
                result.bytes_from_origin += resp.body_size

        self._fetch_all(page.embedded,
                        lambda obj: provider.object_get(obj.name), account,
                        lambda: self._finish(result, on_done))

    # -- wrapped mode -----------------------------------------------------------

    def _wrapped_load(self, provider, wrapper: WrapperPage, started,
                      wrapper_bytes, on_done, fail) -> None:
        result = PageLoadResult(url=wrapper.page.url, started_at=started,
                                completed_at=started,
                                object_count=wrapper.page.object_count,
                                wrapper_bytes=wrapper_bytes)
        slots = [_Slot(item) for item in wrapper.work_items()]
        per_object: Dict[str, List[_Slot]] = {}
        for slot in slots:
            per_object.setdefault(slot.item.object_name, []).append(slot)
        # peer id -> {object name -> verified bytes it served}
        peer_credit: Dict[str, Dict[str, int]] = {}
        objects_by_name = {o.name: o for o in wrapper.page.all_objects()}

        def all_settled(_answers) -> None:
            # Every slot has its bytes, so no fetch is retried again:
            # dropping the recursive fetch's reference to itself lets
            # the load's state die by reference count.
            nonlocal fetch
            fetch = None
            self._send_usage_records(provider, wrapper, peer_credit)
            self._finish(result, on_done)

        settled = fan_in(len(slots), all_settled)

        def fill(slot: _Slot, body: ChunkBody, server: Optional[str]) -> None:
            slot.body, slot.server = body, server
            verify_object(slot.item.object_name)

        def verify_object(name: str) -> None:
            """Check ``name``'s bytes against the wrapper's hash once
            every slot of it has an answer.

            A group of one slot spanning ``[0, body.obj.size)`` is the
            whole served object: its bytes are ``derive_payload`` of
            ``body.obj``, so the digest is ``body.obj.sha256``, hashed
            once per object instance. Any other group (chunked, partial
            or mixed-source) is assembled and hashed here.
            """
            group = per_object[name]
            if any(slot.body is None for slot in group):
                return  # a chunk is still missing; its answer verifies again
            only = group[0]
            if (len(group) == 1 and only.item.start == 0
                    and only.item.end == only.body.obj.size):
                digest = only.body.obj.sha256
            else:
                digest = sha256_hex(b"".join(
                    derive_payload(s.body.obj.name, s.body.obj.version,
                                   s.body.obj.size)[s.item.start:s.item.end]
                    for s in sorted(group, key=lambda s: s.item.start)))
            if digest == wrapper.hashes[name]:
                for slot in group:
                    if slot.server is not None:
                        credit = peer_credit.setdefault(slot.server, {})
                        credit[name] = credit.get(name, 0) + slot.body.size
                for _ in group:
                    settled()
            else:
                # Integrity failure: blame every peer that served a
                # chunk, recover the whole object from the origin.
                for slot in group:
                    if slot.server is not None:
                        result.corrupted.append((name, slot.server))
                        self._post(provider.target(
                            "POST", provider.corruption_report_path,
                            body={"peer_id": slot.server, "object": name},
                            body_size=150))
                self._origin_recover(provider, name, result, group, settled)

        def fetch(slot: _Slot, peer_id: str, attempted: Set[str]) -> None:
            item = slot.item
            obj = objects_by_name[item.object_name]
            self._c_chunk_fetches.inc()
            fetch_span = self.sim.tracer.start_span(
                "nocdn.fetch", object=item.object_name, peer=peer_id)

            def got(resp, _stats) -> None:
                if resp.ok and isinstance(resp.body, ChunkBody):
                    fetch_span.finish(
                        outcome=("peer" if peer_id == item.peer_id
                                 else "failover"),
                        bytes=resp.body_size)
                    result.bytes_from_peers += resp.body_size
                    fill(slot, resp.body, peer_id)
                else:
                    failed(None)

            def failed(_exc) -> None:
                fetch_span.finish(outcome="peer-failed")
                self._c_chunk_failures.inc()
                result.peer_failures.append((item.object_name, peer_id))
                self.peer_failure_counts[peer_id] = (
                    self.peer_failure_counts.get(peer_id, 0) + 1)
                next_peer = next(
                    (p for p in wrapper.fallbacks if p not in attempted), None)
                if next_peer is not None:
                    attempted.add(next_peer)
                    self._c_peer_failovers.inc()
                    fetch(slot, next_peer, attempted)
                    return
                self._c_origin_fallbacks.inc()
                self._origin_recover_chunk(provider, slot, obj, result, fill)

            with self.sim.tracer.activate(fetch_span):
                self._peer_get(
                    wrapper.peer_endpoints[peer_id],
                    f"{CONTENT_PREFIX}/{provider.site_name}/{item.object_name}",
                    None if item.start == 0 and item.end == obj.size
                    else (item.start, item.end), obj.etag, got, failed)

        for slot in slots:
            fetch(slot, slot.item.peer_id, {slot.item.peer_id})

    def _origin_recover(self, provider, name, result, group,
                        settled) -> None:
        """Re-fetch a corrupted object wholesale from the origin."""

        def settle_group(_exc=None) -> None:
            for _ in group:
                settled()

        def got(resp, _stats) -> None:
            if resp.ok:
                result.bytes_from_origin += resp.body_size
            settle_group()

        self._request(provider.object_get(name), got, settle_group)

    def _origin_recover_chunk(self, provider, slot: _Slot, obj, result,
                              fill) -> None:
        """Fetch a chunk every peer failed from the origin (no credit)."""
        item = slot.item

        def got(resp, _stats) -> None:
            if resp.ok and isinstance(resp.body, ChunkBody):
                result.bytes_from_origin += resp.body_size
                fill(slot, resp.body, None)
            else:
                give_up()

        def give_up(_exc=None) -> None:
            # A zero-length stand-in makes the object's hash check fail
            # loudly rather than hanging the load forever.
            fill(slot, ChunkBody(obj=obj, start=item.start, end=item.start),
                 None)

        self._request(provider.object_get(item.object_name,
                                          (item.start, item.end)),
                      got, give_up)

    # -- usage records ---------------------------------------------------------------

    def _send_usage_records(self, provider, wrapper: WrapperPage,
                            peer_credit: Dict[str, Dict[str, int]]) -> None:
        for peer_id, by_object in peer_credit.items():
            key = wrapper.peer_keys[peer_id]
            address, port = wrapper.peer_endpoints[peer_id]
            for object_name, nbytes in by_object.items():
                nonce = f"{self.device.name}-{self.sim.ids.next_int('nonce')}"
                record = make_record(wrapper.wrapper_id, peer_id, object_name,
                                     nbytes, nonce, key)
                self.records_sent += 1
                self._post((address,
                            HttpRequest("POST", USAGE_PREFIX,
                                        headers={"X-NoCdn-Site":
                                                 provider.site_name},
                                        body=record, body_size=250),
                            port))

    def _finish(self, result: PageLoadResult, on_done) -> None:
        result.completed_at = self.sim.now
        self.loads_completed += 1
        on_done(result)


def default_slos(source: str = ""):
    """NoCDN service objectives over a scraped :class:`PageLoader`.

    ``source`` is the TSDB source prefix the loader's registry was
    registered under (see :meth:`repro.obs.timeseries.TimeSeriesDB.
    add_registry`).
    """
    from repro.obs.slo import RatioSli, SloSpec, ThresholdSli

    prefix = f"{source}/" if source else ""
    return [
        SloSpec(
            name="nocdn-chunk-integrity", service="nocdn", objective=0.99,
            sli=RatioSli(total=(f"{prefix}nocdn.chunk_fetches",),
                         bad=(f"{prefix}nocdn.chunk_fetch_failures",)),
            description="Peer chunk fetches answered without failover",
            exemplar_metric="nocdn.page_load_seconds"),
        SloSpec(
            name="nocdn-page-latency", service="nocdn", objective=0.9,
            sli=ThresholdSli(f"{prefix}nocdn.page_load_seconds_p99",
                             max_value=1.5),
            description="Page-load p99 stays under 1.5 simulated seconds",
            exemplar_metric="nocdn.page_load_seconds"),
    ]
