"""The NoCDN peer: a reverse proxy service on the HPoP (paper SIV-B).

"Each NoCDN peer acts as a normal reverse proxy when processing user
requests — i.e., the peer serves the requested object from its cache if
available or, if not, obtains the object from the origin server,
forwards it to the user, and caches it locally for future requests. Our
prototype uses standard Apache in reverse proxy mode with virtual
hosting — to allow a peer to sign up for content delivery with multiple
content providers."

Misbehaviour knobs (for the integrity/accounting experiments):

- ``tamper``: serve corrupted bytes (caught by the loader's hash check),
- ``inflate_factor``: rewrite usage records before upload (caught by the
  origin's HMAC verification),
- ``replay_records``: upload old records twice (caught by the nonce
  registry).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.hpop.core import HPOP_PORT, Hpop, HpopService
from repro.http.cache import CacheDisposition, HttpCache
from repro.http.client import HttpClient, Target
from repro.http.content import WebObject
from repro.http.messages import HttpRequest, HttpResponse, not_found, ok, partial_content
from repro.nocdn.records import UsageRecord
from repro.util.units import mib

if TYPE_CHECKING:  # pragma: no cover
    from repro.nocdn.directory import DirectoryPublisher
    from repro.nocdn.origin import ContentProvider

CONTENT_PREFIX = "/nocdn"
USAGE_PREFIX = "/nocdn-usage"
# Hop-guard header on peer-to-peer forwards: a forwarded request that
# misses must answer 404 (never re-forward, never origin-fill) so
# forwarding depth is bounded at one and the origin fill — plus its
# usage accounting — stays with the peer the client credited.
HOP_HEADER = "X-NoCdn-Hop"
# A neighbour that does not answer a forward within this many seconds
# is skipped and the front peer fills from the origin.
FORWARD_TIMEOUT = 2.0
# Seconds between usage-record uploads to each provider; the origin's
# key-expiry grace assumes it stays well under a key TTL.
UPLOAD_INTERVAL = 60.0


@dataclass
class ProviderSignup:
    """One provider this peer delivers for (virtual host entry)."""

    provider: "ContentProvider"
    cache: HttpCache
    pending_records: List[UsageRecord] = field(default_factory=list)
    uploaded_records: int = 0
    publisher: Optional["DirectoryPublisher"] = None


@dataclass(frozen=True)
class ChunkBody:
    """Response body for a (possibly partial) object fetch."""

    obj: WebObject
    start: int
    end: int

    @property
    def size(self) -> int:
        return self.end - self.start


class NoCdnPeerService(HpopService):
    """Install on an HPoP; then ``sign_up`` with content providers."""

    name = "nocdn-peer"

    def __init__(
        self,
        cache_bytes: int = mib(256),
        tamper: bool = False,
        inflate_factor: float = 1.0,
        replay_records: bool = False,
    ) -> None:
        super().__init__()
        if inflate_factor < 1.0:
            raise ValueError("inflate_factor must be >= 1.0")
        self.cache_bytes = cache_bytes
        self.tamper = tamper
        self.inflate_factor = inflate_factor
        self.replay_records = replay_records
        self._signups: Dict[str, ProviderSignup] = {}
        self._client: Optional[HttpClient] = None
        self._replayed: List[UsageRecord] = []
        self.bytes_served = 0.0
        self.origin_fills = 0
        # Collaborative-caching accounting (plain attributes: at 10k+
        # peers a registry per peer would dominate construction cost;
        # fleet benches aggregate these by summation instead).
        self.local_hit_bytes = 0.0
        self.neighbor_hits = 0
        self.neighbor_hit_bytes = 0.0
        self.origin_fill_bytes = 0.0
        self.forwarded_served = 0
        self.forwarded_misses = 0

    @property
    def peer_id(self) -> str:
        assert self.hpop is not None
        return self.hpop.host.name

    # -- lifecycle --------------------------------------------------------

    def on_install(self, hpop: Hpop) -> None:
        hpop.http.route_async(CONTENT_PREFIX, self._serve_content)
        hpop.http.route(USAGE_PREFIX, self._accept_usage_record)

    def on_start(self) -> None:
        self.hpop.every(UPLOAD_INTERVAL, self._upload_all,
                        label=f"{self.peer_id}.usage-upload",
                        jitter_stream="nocdn.upload.jitter")

    # -- sign-up ------------------------------------------------------------

    def sign_up(self, provider: "ContentProvider") -> None:
        """Register with a provider (multi-provider via virtual hosting)."""
        if provider.site_name in self._signups:
            raise ValueError(f"already signed up with {provider.site_name}")
        publisher = None
        on_evict = None
        if provider.directory is not None:
            from repro.nocdn.directory import DirectoryPublisher

            publisher = DirectoryPublisher(
                provider.directory, self.peer_id, provider.site_name,
                endpoint=(self.hpop.host.address, HPOP_PORT))
            on_evict = (lambda key, _entry,
                        _pub=publisher: _pub.note_evict(key))
        signup = ProviderSignup(provider=provider,
                                cache=HttpCache(self.cache_bytes,
                                                default_ttl=provider.object_ttl,
                                                on_evict=on_evict),
                                publisher=publisher)
        self._signups[signup.provider.site_name] = signup
        provider.register_peer(self)

    def signup_for(self, site_name: str) -> ProviderSignup:
        signup = self._signups.get(site_name)
        if signup is None:
            raise KeyError(f"{self.peer_id} not signed up with {site_name}")
        return signup

    def providers(self) -> List[str]:
        return sorted(self._signups)

    # -- content serving --------------------------------------------------------

    def _parse_content_path(self, path: str):
        # /nocdn/<site>/<object name...>
        rest = path[len(CONTENT_PREFIX):].lstrip("/")
        site, _, object_name = rest.partition("/")
        return site, object_name

    def _serve_content(self, request: HttpRequest, respond) -> None:
        site, object_name = self._parse_content_path(request.path)
        signup = self._signups.get(site)
        if signup is None or not object_name:
            respond(not_found(request.path))
            return

        def deliver(obj: WebObject) -> None:
            if self.tamper:
                obj = obj.tampered()
            if request.range is not None:
                start, end = request.range
                end = min(end, obj.size)
                if start >= obj.size:
                    respond(HttpResponse(416, body_size=60))
                    return
                body = ChunkBody(obj=obj, start=start, end=end)
                self.bytes_served += body.size
                respond(partial_content(body.size, body=body))
            else:
                body = ChunkBody(obj=obj, start=0, end=obj.size)
                self.bytes_served += obj.size
                respond(ok(body_size=obj.size, body=body,
                           headers={"ETag": obj.etag}))

        forwarded = HOP_HEADER in request.headers
        wanted = request.headers.get("If-Match")
        disposition, entry = signup.cache.lookup(object_name, self.sim.now)
        if (entry is not None and wanted is not None
                and entry.obj.etag != wanted):
            # Another version than the client's wrapper hashed (the
            # origin has published an update): a miss, never served.
            disposition, entry = CacheDisposition.MISS, None
        if disposition is CacheDisposition.FRESH:
            # Contract: FRESH hits are served in place, never forwarded.
            if forwarded:
                self.forwarded_served += 1
            else:
                self.local_hit_bytes += entry.obj.size
            deliver(entry.obj)
            return

        if forwarded:
            # Hop guard: a forwarded miss answers 404 so the front peer
            # origin-fills and the usage accounting stays with it.
            self.forwarded_misses += 1
            respond(not_found(object_name))
            return

        provider = signup.provider

        def fill_from_origin() -> None:
            self.origin_fills += 1

            def filled(resp: HttpResponse, _stats) -> None:
                if not resp.ok or not isinstance(resp.body, ChunkBody):
                    respond(not_found(object_name))
                    return
                obj = resp.body.obj
                self.origin_fill_bytes += obj.size
                self._maybe_store(signup, obj)
                deliver(obj)

            def fill_failed(_exc) -> None:
                if entry is not None:
                    deliver(entry.obj)  # serve stale rather than fail
                else:
                    respond(HttpResponse(502, body_size=60,
                                         body="origin down"))

            self._request(provider.object_get(object_name), filled,
                          fill_failed)

        directory = provider.directory
        target = None
        if directory is not None:
            for holder in directory.holders(site, object_name,
                                            exclude={self.peer_id}):
                endpoint = directory.endpoint(holder)
                if endpoint is not None:
                    target = endpoint
                    break
        if target is None:
            fill_from_origin()
            return

        def neighbor_answered(resp: HttpResponse, _stats) -> None:
            body = resp.body
            if (resp.ok and isinstance(body, ChunkBody)
                    and body.size == body.obj.size):
                obj = body.obj
                self.neighbor_hits += 1
                self.neighbor_hit_bytes += obj.size
                self._maybe_store(signup, obj)
                deliver(obj)
            else:
                fill_from_origin()  # stale directory entry: 404 from peer

        forward_headers = {HOP_HEADER: "1"}
        if wanted is not None:
            forward_headers["If-Match"] = wanted
        self._request(
            (target[0],
             HttpRequest("GET", f"{CONTENT_PREFIX}/{site}/{object_name}",
                         headers=forward_headers),
             target[1]),
            neighbor_answered, lambda _exc: fill_from_origin(),
            FORWARD_TIMEOUT)

    def _request(self, target: Target, on_response, on_error,
                 timeout: Optional[float] = None) -> None:
        """The one request site: origin fill, neighbour forward, upload.
        The client is born on the first upstream request: a peer that
        only serves from its cache, or never serves, has none."""
        client = self._client
        if client is None:
            assert self.hpop is not None
            client = self._client = HttpClient(self.hpop.host,
                                               self.hpop.network)
        server, request, port = target
        client.request(server, request, on_response, port=port,
                       on_error=on_error, timeout=timeout)

    def _maybe_store(self, signup: ProviderSignup, obj: WebObject) -> None:
        """Cache ``obj`` unless the provider's partitioning strategy says
        this peer is not a home for it; announce successful stores."""
        provider = signup.provider
        strategy = provider.strategy
        if strategy is not None:
            live = provider.usable_peers().ids
            if not strategy.should_cache(self.peer_id, obj.name, live):
                return
        stored = signup.cache.store(obj, self.sim.now)
        if stored and signup.publisher is not None:
            signup.publisher.note_store(obj.name)

    # -- usage records --------------------------------------------------------------

    def _accept_usage_record(self, request: HttpRequest) -> HttpResponse:
        record = request.body
        if not isinstance(record, UsageRecord):
            return HttpResponse(400, body_size=40, body="not a usage record")
        site = request.headers.get("X-NoCdn-Site", "")
        signup = self._signups.get(site)
        if signup is None:
            return not_found(request.path)
        signup.pending_records.append(record)
        return ok(body_size=20)

    def _upload_all(self) -> None:
        for signup in self._signups.values():
            self._upload_for(signup)

    def _upload_for(self, signup: ProviderSignup) -> None:
        if not signup.pending_records and not (
                self.replay_records and self._replayed):
            return
        records = list(signup.pending_records)
        signup.pending_records.clear()
        if self.inflate_factor > 1.0:
            records = [r.inflated(self.inflate_factor) for r in records]
        if self.replay_records:
            records = records + self._replayed
            self._replayed = list(records)
        body_size = 200 * max(1, len(records))

        def uploaded(resp: HttpResponse, _stats) -> None:
            if resp.ok:
                signup.uploaded_records += len(records)

        self._request(
            signup.provider.target(
                "POST", signup.provider.usage_upload_path,
                body={"peer_id": self.peer_id, "records": records},
                body_size=body_size),
            uploaded, lambda exc: signup.pending_records.extend(records))

    def flush_usage(self) -> None:
        """Immediate upload (tests and experiment drivers)."""
        self._upload_all()
