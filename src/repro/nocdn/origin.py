"""The NoCDN content provider (origin): wrappers, auditing, payment.

The origin is the only trusted party (paper SIV-B): it generates
wrapper pages with peer assignments, hashes, and short-term keys;
verifies uploaded usage records (HMAC + nonce + per-wrapper caps);
maintains peer trust; detects anomalies; and pays peers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.http.client import Target
from repro.http.content import ContentCatalog, WebPage
from repro.http.messages import (
    HttpRequest,
    HttpResponse,
    not_found,
    ok,
    partial_content,
)
from repro.http.server import HttpServer
from repro.net.network import Network
from repro.net.node import Host
from repro.nocdn.directory import ContentDirectory
from repro.nocdn.records import UsageRecord
from repro.nocdn.selection import (RandomSelection, SelectionPolicy,
                                   UsablePeers, chunked_assignment)
from repro.nocdn.strategy import CacheStrategy, StrategySelection
from repro.nocdn.wrapper import LOADER_SCRIPT_SIZE, ChunkAssignment, WrapperPage
from repro.util.crypto import NonceRegistry, deterministic_key
from repro.util.stats import percentile

if TYPE_CHECKING:  # pragma: no cover
    from repro.nocdn.peer import NoCdnPeerService


@dataclass
class PeerInfo:
    """The origin's view of one recruited peer.

    ``trust``, ``expelled`` and ``quarantined_until`` feed the
    provider's cached usable view: change them through the provider
    (``expel_peer``, ``quarantine_peer``, the audit's penalties), or
    before its first wrapper — a later direct write is not seen until
    the next membership change.
    """

    peer_id: str
    host: Host
    service: "NoCdnPeerService"
    trust: float = 1.0
    outstanding_bytes: int = 0
    expelled: bool = False
    corruption_reports: int = 0
    quarantined_until: float = 0.0
    quarantines: int = 0

    @property
    def alive(self) -> bool:
        return (not self.expelled and self.host.powered
                and self.service.running)


@dataclass
class KeyIssue:
    """A short-term key the origin issued for (wrapper, peer)."""

    key: bytes
    wrapper_id: str
    peer_id: str
    issued_at: float
    cap_bytes: int
    accepted_bytes: int = 0


@dataclass
class AuditStats:
    """Counters from usage-record verification."""

    accepted_records: int = 0
    accepted_bytes: float = 0.0
    rejected_bad_signature: int = 0
    rejected_replay: int = 0
    rejected_unknown_key: int = 0
    rejected_expired: int = 0
    rejected_over_cap: int = 0

    @property
    def rejected_total(self) -> int:
        return (self.rejected_bad_signature + self.rejected_replay
                + self.rejected_unknown_key + self.rejected_expired
                + self.rejected_over_cap)


class ContentProvider:
    """An origin site running NoCDN."""

    objects_prefix = "/objects"
    wrapper_prefix = "/page"
    usage_upload_path = "/usage-upload"
    corruption_report_path = "/report-corruption"
    loader_script_path = "/loader.js"

    def __init__(
        self,
        site_name: str,
        host: Host,
        network: Network,
        catalog: ContentCatalog,
        selection: Optional[SelectionPolicy] = None,
        port: int = 80,
        object_ttl: float = 300.0,
        key_ttl: float = 600.0,
        chunk_size: Optional[int] = None,
        payment_per_gib: float = 0.01,
        payment_cap_bytes: Optional[float] = None,
        trust_penalty: float = 0.5,
        expel_threshold: float = 0.05,
        origin_think_time: float = 0.0,
        wrapper_reuse_ttl: Optional[float] = None,
        strategy: Optional[CacheStrategy] = None,
        directory: Optional[ContentDirectory] = None,
        max_fallbacks: Optional[int] = None,
    ) -> None:
        self.site_name = site_name
        self.host = host
        self.network = network
        self.catalog = catalog
        # Collaborative caching (optional): a placement strategy drives
        # wrapper assignment unless an explicit selection overrides it,
        # and the content directory tracks who holds what for
        # neighbor-hit forwarding. Both default off, which preserves
        # the classic per-peer NoCDN byte-for-byte.
        self.strategy = strategy
        self.directory = directory
        # Each fallback peer gets a whole-page byte cap; at fleet scale
        # an uncapped fallback list means O(fleet) KeyIssues per wrapper.
        self.max_fallbacks = max_fallbacks
        if selection is None and strategy is not None:
            selection = StrategySelection(strategy, directory, site_name)
        self.selection = selection or RandomSelection()
        self.port = port
        self.object_ttl = object_ttl
        self.key_ttl = key_ttl
        self.chunk_size = chunk_size
        self.payment_per_gib = payment_per_gib
        self.payment_cap_bytes = payment_cap_bytes
        self.trust_penalty = trust_penalty
        self.expel_threshold = expel_threshold
        self.sim = network.sim
        self.peers: Dict[str, PeerInfo] = {}
        # The membership index (see ``usable_peers``): the cached view,
        # the earliest quarantine expiry pending when it was built, and
        # the network's power epoch it was built under.
        self._usable_view: Optional[UsablePeers] = None
        self._usable_until = 0.0
        self._usable_power_epoch = 0
        self.audit = AuditStats()
        self.audit_by_peer: Dict[str, AuditStats] = {}
        self.payable_bytes: Dict[str, float] = {}
        self.paid_total: Dict[str, float] = {}
        self.wrappers_issued = 0
        self.wrappers_reused = 0
        self.direct_pages_served = 0
        # Paper SIV-B: "depending on the peer selection policies and
        # billing models ... even the wrapper page may be reused among
        # users and/or allowed to be cached". When a TTL is set, one
        # generated wrapper serves all clients until it expires.
        self.wrapper_reuse_ttl = wrapper_reuse_ttl
        self._wrapper_cache: Dict[str, WrapperPage] = {}
        self._keys: Dict[tuple, KeyIssue] = {}
        self._next_key_prune = self.sim.now + key_ttl
        self._nonces = NonceRegistry()
        # Reuse the host's HTTP server if one exists (shared origin box).
        existing = host.stream_listener(port)
        if isinstance(existing, HttpServer):
            self.server = existing
        else:
            self.server = HttpServer(host, port, think_time=origin_think_time,
                                     name=f"origin:{site_name}")
        self._register_routes()

    # -- peer management -----------------------------------------------------

    def register_peer(self, service: "NoCdnPeerService") -> PeerInfo:
        info = PeerInfo(peer_id=service.peer_id, host=service.hpop.host,
                        service=service)
        self.peers[info.peer_id] = info
        self._usable_view = None
        if self.strategy is not None:
            self.strategy.register_peer(info.peer_id)
        return info

    def expel_peer(self, peer_id: str) -> None:
        """Remove a misbehaving peer from future assignments."""
        info = self.peers.get(peer_id)
        if info is not None:
            info.expelled = True
            self._usable_view = None
            if self.strategy is not None:
                self.strategy.unregister_peer(peer_id)
            if self.directory is not None:
                self.directory.drop_peer(peer_id)

    def quarantine_peer(self, peer_id: str, duration: float) -> float:
        """Exclude a peer from assignments for ``duration`` seconds.

        The control plane's soft expulsion: the origin cannot observe a
        *partitioned* peer (its host stays powered, the service keeps
        running), so client-observed failures reported through the
        controller are the only signal. Quarantine is additive-safe —
        re-quarantining extends, never shortens. Returns the expiry.
        """
        info = self.peers.get(peer_id)
        if info is None:
            raise KeyError(f"unknown peer {peer_id!r}")
        expiry = self.sim.now + duration
        if expiry > info.quarantined_until:
            info.quarantined_until = expiry
            self._usable_view = None
        info.quarantines += 1
        # The directory must not advertise a quarantined peer: its
        # shard range re-homes to ring successors (ownership is always
        # computed against the live set), and stale holder entries
        # would send neighbor forwards at a peer clients already fail
        # against. The peer re-publishes as it serves after release.
        if self.directory is not None:
            self.directory.drop_peer(peer_id)
        return info.quarantined_until

    def _usable(self, info: PeerInfo) -> bool:
        return info.alive and self.sim.now >= info.quarantined_until

    def usable_peers(self) -> UsablePeers:
        """The usable peers in registration order, as a cached view.

        Every consumer — wrapper assignment, the fallback shortlist,
        the peers' ``should_cache`` checks — reads this one view, so a
        wrapper's cost does not grow with the fleet. It is rebuilt by a
        ``_usable`` scan only when something ``_usable`` reads may have
        changed: a membership write on this provider dropped it, a
        quarantine pending at the last scan has since expired, or some
        host on the network was powered on or off. The last also covers
        ``service.running``: ``Hpop`` start/shutdown/crash/restart flip
        it and power the host in the same call.
        """
        now = self.sim.now
        if (self._usable_view is None or now >= self._usable_until
                or self.network.power_epoch != self._usable_power_epoch):
            peers = self.peers.values()
            self._usable_view = UsablePeers(
                p for p in peers if self._usable(p))
            self._usable_until = min(
                (p.quarantined_until for p in peers
                 if p.quarantined_until > now), default=math.inf)
            self._usable_power_epoch = self.network.power_epoch
        return self._usable_view

    def alive_peers(self) -> List[PeerInfo]:
        return list(self.usable_peers())

    # -- routes ------------------------------------------------------------------

    def _register_routes(self) -> None:
        vh = self.site_name
        self.server.route(self.wrapper_prefix, self._serve_wrapper,
                          virtual_host=vh)
        self.server.route(self.objects_prefix, self._serve_object,
                          virtual_host=vh)
        self.server.route(self.usage_upload_path, self._accept_usage_upload,
                          virtual_host=vh)
        self.server.route(self.corruption_report_path,
                          self._accept_corruption_report, virtual_host=vh)
        self.server.route(self.loader_script_path,
                          lambda req: ok(body_size=LOADER_SCRIPT_SIZE,
                                         body="loader.js",
                                         headers={"Cache-Control":
                                                  "public, max-age=86400"}),
                          virtual_host=vh)

    # -- object serving (origin fill + fallback) ----------------------------------

    def target(self, method: str, path: str, **fields) -> Target:
        """``method path`` to this origin's virtual host; ``fields`` are
        the request's other fields."""
        return (self.host,
                HttpRequest(method, path, host=self.site_name, **fields),
                self.port)

    def object_get(self, name: str,
                   byte_range: Optional[Tuple[int, int]] = None) -> Target:
        """The GET of object ``name`` (of ``byte_range`` of it): the one
        place its URL is written."""
        return self.target("GET", f"{self.objects_prefix}/{name}",
                           range=byte_range)

    def _serve_object(self, request: HttpRequest) -> HttpResponse:
        from repro.nocdn.peer import ChunkBody  # local import: cycle

        name = request.path[len(self.objects_prefix):].lstrip("/")
        obj = self.catalog.object(name)
        if obj is None:
            return not_found(name)
        if request.range is not None:
            start, end = request.range
            end = min(end, obj.size)
            if start >= obj.size:
                return HttpResponse(416, body_size=60)
            body = ChunkBody(obj=obj, start=start, end=end)
            return partial_content(body.size, body=body)
        return ok(body_size=obj.size,
                  body=ChunkBody(obj=obj, start=0, end=obj.size),
                  headers={"ETag": obj.etag,
                           "Cache-Control": f"max-age={self.object_ttl}"})

    # -- wrapper generation ----------------------------------------------------------

    def _serve_wrapper(self, request: HttpRequest) -> HttpResponse:
        url = request.path[len(self.wrapper_prefix):]
        page = self.catalog.page(url or "/")
        if page is None:
            return not_found(url)
        client_host = request.headers.get("X-Client-Host", "")
        if self.wrapper_reuse_ttl is not None:
            cached = self._wrapper_cache.get(page.url)
            if (cached is not None
                    # A catalog update replaces the page: the cached
                    # wrapper's hashes name the old versions.
                    and cached.page is page
                    and self.sim.now <= cached.issued_at + self.wrapper_reuse_ttl
                    # Reusing past key expiry would extend caps on keys
                    # the audit no longer accepts — and authorize bytes
                    # for the peer without bound (each reuse re-extends
                    # cap_bytes, and nothing ever expires the issue).
                    and self.sim.now <= cached.issued_at + self.key_ttl
                    and all(self._usable(self.peers[p])
                            for p in cached.peers_used())):
                self.wrappers_reused += 1
                # Each additional client is authorized to download the
                # page once more: extend the per-peer byte caps.
                for peer_id in cached.peers_used():
                    issue = self._keys.get((cached.wrapper_id, peer_id))
                    if issue is not None:
                        issue.cap_bytes += cached.expected_bytes_for(peer_id)
                return ok(body_size=cached.size, body=cached)
        wrapper = self.build_wrapper(page, client_host)
        if wrapper is None:
            # No usable peers: serve the page container directly.
            self.direct_pages_served += 1
            return ok(body_size=page.container.size, body=page)
        if self.wrapper_reuse_ttl is not None:
            self._wrapper_cache[page.url] = wrapper
        return ok(body_size=wrapper.size, body=wrapper)

    def build_wrapper(self, page: WebPage,
                      client_host_name: str = "") -> Optional[WrapperPage]:
        """Generate a wrapper for ``page``, or None if no peers are usable."""
        self._prune_expired_keys()
        peers = self.usable_peers()
        if not peers:
            return None
        rng = self.sim.rng.stream(f"nocdn.select.{self.site_name}")
        client = None
        if client_host_name and client_host_name in self.network.nodes:
            node = self.network.nodes[client_host_name]
            client = node if isinstance(node, Host) else None
        self.wrappers_issued += 1
        wrapper_id = self.sim.ids.next(f"wrapper-{self.site_name}")

        chunks: List[ChunkAssignment] = []
        assignments: Dict[str, str] = {}
        with self.sim.tracer.trace(
                "nocdn.select", site=self.site_name,
                policy=type(self.selection).__name__,
                peers=len(peers)) as select_span:
            if self.chunk_size is not None and len(peers) > 1:
                chunks = chunked_assignment(page, peers, rng, self.chunk_size)
            else:
                assignments = self.selection.assign(page, client, peers,
                                                    self.network, rng)
            select_span.set(assigned=len(assignments) + len(chunks))

        used_peer_ids = set(assignments.values()) | {c.peer_id for c in chunks}
        # Ranked substitutes (most trusted first) the loader may retry a
        # failed fetch against before going back to the origin. Only
        # peers *without* an assignment qualify: a substitute serves
        # arbitrary objects, so its byte cap must cover the whole page,
        # which would defeat auditing for an already-capped peer.
        fallbacks = list(islice(
            (peer_id for peer_id in peers.ranking
             if peer_id not in used_peer_ids), self.max_fallbacks))
        peer_endpoints = {}
        peer_keys = {}
        from repro.hpop.core import HPOP_PORT
        for peer_id in used_peer_ids | set(fallbacks):
            info = self.peers[peer_id]
            peer_endpoints[peer_id] = (info.host.address, HPOP_PORT)
            peer_keys[peer_id] = deterministic_key(
                f"{self.site_name}:{wrapper_id}:{peer_id}")

        wrapper = WrapperPage(
            wrapper_id=wrapper_id,
            page=page,
            assignments=assignments,
            chunks=chunks,
            hashes={obj.name: obj.sha256 for obj in page.all_objects()},
            peer_endpoints=peer_endpoints,
            peer_keys=peer_keys,
            fallbacks=fallbacks,
            issued_at=self.sim.now,
        )
        page_bytes = sum(obj.size for obj in page.all_objects())
        for peer_id in used_peer_ids | set(fallbacks):
            self._keys[(wrapper_id, peer_id)] = KeyIssue(
                key=peer_keys[peer_id], wrapper_id=wrapper_id,
                peer_id=peer_id, issued_at=self.sim.now,
                cap_bytes=(wrapper.expected_bytes_for(peer_id)
                           if peer_id in used_peer_ids else page_bytes))
        return wrapper

    def _prune_expired_keys(self) -> None:
        """Drop key issues long past expiry so ``_keys`` stays bounded.

        A 2x``key_ttl`` grace keeps the audit classifying late uploads
        as ``rejected_expired`` (no trust penalty) rather than
        ``rejected_unknown_key`` (penalized): an honest peer uploads
        within one upload interval of serving, and every supported
        configuration keeps that interval well under one ``key_ttl``
        (defaults: 60s vs. 600s). Amortized via a timestamp, so
        steady-state wrapper generation pays nothing.
        """
        now = self.sim.now
        if now < self._next_key_prune:
            return
        self._next_key_prune = now + self.key_ttl
        dead = [k for k, issue in self._keys.items()
                if now > issue.issued_at + 2 * self.key_ttl]
        for k in dead:
            del self._keys[k]

    # -- usage auditing ---------------------------------------------------------------

    def _accept_usage_upload(self, request: HttpRequest) -> HttpResponse:
        body = request.body
        if not isinstance(body, dict) or "records" not in body:
            return HttpResponse(400, body_size=40)
        uploader = body.get("peer_id", "")
        for record in body["records"]:
            if isinstance(record, UsageRecord):
                self._audit_record(uploader, record)
        return ok(body_size=40)

    def _peer_audit(self, peer_id: str) -> AuditStats:
        return self.audit_by_peer.setdefault(peer_id, AuditStats())

    def _audit_record(self, uploader: str, record: UsageRecord) -> None:
        stats = self._peer_audit(record.peer_id)
        issue = self._keys.get((record.wrapper_id, record.peer_id))
        if issue is None:
            self.audit.rejected_unknown_key += 1
            stats.rejected_unknown_key += 1
            self._penalize(record.peer_id)
            return
        if self.sim.now > issue.issued_at + self.key_ttl:
            self.audit.rejected_expired += 1
            stats.rejected_expired += 1
            return
        if not record.verify(issue.key):
            self.audit.rejected_bad_signature += 1
            stats.rejected_bad_signature += 1
            self._penalize(record.peer_id)
            return
        if not self._nonces.register(record.nonce):
            self.audit.rejected_replay += 1
            stats.rejected_replay += 1
            self._penalize(record.peer_id)
            return
        if issue.accepted_bytes + record.bytes_served > issue.cap_bytes:
            self.audit.rejected_over_cap += 1
            stats.rejected_over_cap += 1
            self._penalize(record.peer_id)
            return
        issue.accepted_bytes += record.bytes_served
        self.audit.accepted_records += 1
        self.audit.accepted_bytes += record.bytes_served
        stats.accepted_records += 1
        stats.accepted_bytes += record.bytes_served
        self.payable_bytes[record.peer_id] = (
            self.payable_bytes.get(record.peer_id, 0.0) + record.bytes_served)

    def _penalize(self, peer_id: str) -> None:
        info = self.peers.get(peer_id)
        if info is None:
            return
        info.trust *= self.trust_penalty
        self._usable_view = None  # the fallback ranking reads trust
        if info.trust < self.expel_threshold:
            # Through expel_peer, so the peer also leaves the strategy's
            # ring and the directory stops advertising its copies.
            self.expel_peer(peer_id)

    # -- corruption reports ----------------------------------------------------------------

    def _accept_corruption_report(self, request: HttpRequest) -> HttpResponse:
        body = request.body
        if not isinstance(body, dict) or "peer_id" not in body:
            return HttpResponse(400, body_size=40)
        info = self.peers.get(body["peer_id"])
        if info is not None:
            info.corruption_reports += 1
            self._penalize(body["peer_id"])
        return ok(body_size=20)

    # -- payment and anomaly detection --------------------------------------------------------

    def settle_epoch(self) -> Dict[str, float]:
        """Pay out verified bytes (optionally capped) and reset the epoch."""
        payments: Dict[str, float] = {}
        for peer_id, nbytes in self.payable_bytes.items():
            effective = nbytes
            if self.payment_cap_bytes is not None:
                effective = min(effective, self.payment_cap_bytes)
            amount = effective / (1024 ** 3) * self.payment_per_gib
            payments[peer_id] = amount
            self.paid_total[peer_id] = self.paid_total.get(peer_id, 0.0) + amount
        self.payable_bytes = {}
        return payments

    def anomalous_peers(self, factor: float = 5.0) -> List[str]:
        """Peers whose verified bytes exceed ``factor`` x the median —
        the collusion-anomaly signal (colluders' records verify, but
        their volume sticks out)."""
        if len(self.payable_bytes) < 3:
            return []
        volumes = list(self.payable_bytes.values())
        median = percentile(volumes, 50)
        if median <= 0:
            return [p for p, v in self.payable_bytes.items() if v > 0]
        return sorted(p for p, v in self.payable_bytes.items()
                      if v > factor * median)

    @property
    def origin_bytes_served(self) -> int:
        return self.server.bytes_served
