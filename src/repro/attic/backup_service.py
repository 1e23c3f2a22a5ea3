"""The peer-backup service: erasure-coded shards on friends' HPoPs.

:mod:`repro.attic.backup` models availability analytically; this module
is the *operational* mechanism: an HPoP service that

- erasure-codes each attic file (real Reed-Solomon over GF(256)),
- pushes one shard to each friend HPoP over real simulated HTTP,
- restores files from any ``k`` reachable friends after a loss —
  the paper's "redundantly encoding the contents ... and storing pieces
  with a variety of peers".

Shard bytes are the file's canonical derived bytes (the same stand-in
used for content hashing), so a restore is verified end to end: the
decoded payload must hash to the original.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.faults.detector import HeartbeatMonitor
from repro.hpop.core import Hpop, HpopService
from repro.http.client import HttpClient
from repro.http.messages import HttpRequest, HttpResponse, not_found, ok
from repro.metrics.counters import MetricsRegistry
from repro.util.crypto import sha256_hex
from repro.util.erasure import ReedSolomonCodec, Shard
from repro.webdav.resources import DavFile

SHARD_ROUTE = "/backup/shard"


def file_backup_bytes(path: str, version: int, size: int) -> bytes:
    """Canonical bytes for an attic file (matches the content model)."""
    from repro.util.crypto import derive_payload

    return derive_payload(f"attic:{path}", version, size)


@dataclass
class BackupManifestEntry:
    """Where one file's shards went.

    ``owner`` is the host name the shards are keyed under at the
    holders — kept in the manifest so a *replacement* appliance (with a
    different host name) can still retrieve them after a home loss.
    """

    path: str
    version: int
    size: int
    checksum: str
    shard_holders: List[str]  # friend HPoP host names, index-aligned
    k: int
    m: int
    owner: str = ""


def _is_shard_asked_for(resp: HttpResponse, entry: BackupManifestEntry,
                        index: int) -> bool:
    """Whether a fetch was answered with the shard it named.

    A holder's reply is outside input: anything else -- an error, a
    body that is no ``Shard``, a shard of another index or geometry --
    is a miss, because one bad shard among the collected ones would make
    every later decode of them raise.
    """
    body = resp.body
    return (resp.ok and isinstance(body, Shard)
            and (body.index, body.k, body.m) == (index, entry.k, entry.m))


class PeerBackupService(HpopService):
    """Install on an HPoP; add friends; back up and restore the attic.

    With ``heartbeat_interval`` set, the service also runs a failure
    detector: it pings every friend each interval and declares one dead
    when no pong arrives within ``heartbeat_timeout`` (default 3x the
    interval). A death — or a recovery, since a crashed friend may come
    back with its held shards gone — triggers an automatic
    :meth:`repair_all` sweep, retried with capped exponential backoff
    until the manifest is back at full redundancy or
    ``max_repair_sweeps`` consecutive sweeps fail.
    """

    name = "peer-backup"

    def __init__(self, k: int = 4, m: int = 2,
                 heartbeat_interval: Optional[float] = None,
                 heartbeat_timeout: Optional[float] = None,
                 repair_backoff_base: float = 0.5,
                 repair_backoff_cap: float = 30.0,
                 max_repair_sweeps: int = 6,
                 revival_beats: int = 1,
                 revival_cooldown: float = 0.0) -> None:
        super().__init__()
        self.codec = ReedSolomonCodec(k, m)
        self.k = k
        self.m = m
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.repair_backoff_base = repair_backoff_base
        self.repair_backoff_cap = repair_backoff_cap
        self.max_repair_sweeps = max_repair_sweeps
        self.revival_beats = revival_beats
        self.revival_cooldown = revival_cooldown
        self.monitor: Optional[HeartbeatMonitor] = None
        self._repair_pending = False
        self._repair_event = None
        self._repair_attempt = 0
        self._down_since: Dict[str, float] = {}
        # External subscribers to death/revival verdicts: fn(state, name)
        # with state in {"dead", "alive"}. Survives monitor recreation
        # across restarts (the monitor itself is rebuilt per boot).
        self.peer_listeners: List[Callable[[str, str], None]] = []
        self.friends: List["PeerBackupService"] = []
        # Optional repro.obs.sampling.ExemplarStore: repair-time
        # observations then carry their trace id for alert linking.
        self.exemplars = None
        self.manifest: Dict[str, BackupManifestEntry] = {}
        # Shards this HPoP holds *for others*: (owner, path, index) -> Shard
        self.held_shards: Dict[Tuple[str, str, int], Shard] = {}
        self._client: Optional[HttpClient] = None
        self.shards_sent = 0
        self.shards_received = 0
        self.bytes_stored_for_friends = 0
        self.metrics = MetricsRegistry(namespace="peer-backup")
        self._c_shards_repaired = self.metrics.counter(
            "shards_repaired", "lost shards reconstructed and re-placed")
        self._c_repair_bytes = self.metrics.counter(
            "repair_bytes", "bytes of reconstructed shards pushed to peers")
        self._c_repair_retries = self.metrics.counter(
            "repair_retries", "shard re-placements retried after failure")
        self._c_repairs_succeeded = self.metrics.counter(
            "repairs_succeeded", "files whose repair fully completed")
        self._c_repairs_failed = self.metrics.counter(
            "repairs_failed", "files whose repair could not complete")
        self._h_repair_latency = self.metrics.histogram(
            "repair_latency_seconds",
            "probe-to-replacement time of repair_file calls")
        self._c_peers_declared_dead = self.metrics.counter(
            "peers_declared_dead", "friends that missed the heartbeat timeout")
        self._c_peers_recovered = self.metrics.counter(
            "peers_recovered", "dead friends that resumed heartbeating")
        self._c_auto_repair_sweeps = self.metrics.counter(
            "auto_repair_sweeps", "repair_all sweeps the detector triggered")
        self._c_auto_repair_gave_up = self.metrics.counter(
            "auto_repair_gave_up",
            "auto-repair abandoned after max_repair_sweeps failures")
        self._h_time_to_repair = self.metrics.histogram(
            "time_to_repair_seconds",
            "first peer death to full-redundancy recovery")
        self._c_probes_sent = self.metrics.counter(
            "probes_sent", "out-of-band liveness probes issued")
        self._c_probe_deaths = self.metrics.counter(
            "probe_deaths", "death verdicts reached by failed probes")
        self._c_holders_evacuated = self.metrics.counter(
            "holders_evacuated", "degraded friends whose shards migrated")
        self.metrics.gauge(
            "decode_cache_hit_rate",
            "hit rate of the cached inverted decode matrices",
        ).set_function(lambda: self.codec.decode_cache_stats.hit_rate)

    def on_install(self, hpop: Hpop) -> None:
        self._client = HttpClient(hpop.host, hpop.network)
        hpop.http.route(SHARD_ROUTE, self._handle_shard_request)

    def on_start(self) -> None:
        if self.heartbeat_interval is None:
            return
        # A fresh monitor per boot: every friend gets a grace period of
        # one timeout, so a long outage does not cause a storm of death
        # verdicts the instant we come back.
        timeout = (self.heartbeat_timeout
                   if self.heartbeat_timeout is not None
                   else 3 * self.heartbeat_interval)
        self.monitor = HeartbeatMonitor(
            self.sim, timeout,
            on_dead=self._peer_dead, on_alive=self._peer_recovered,
            revival_beats=self.revival_beats,
            revival_cooldown=self.revival_cooldown)
        for friend in self.friends:
            self.monitor.watch(friend.owner_name)
        self.hpop.every(self.heartbeat_interval, self._heartbeat_tick,
                        label=f"{self.owner_name}.attic.heartbeat")

    def on_crash(self) -> None:
        """Power loss: shards held as a favor for friends are volatile;
        our own manifest and attic contents are on disk and survive."""
        self.held_shards.clear()
        self.bytes_stored_for_friends = 0
        self.monitor = None
        self._repair_pending = False
        self._repair_event = None
        self._repair_attempt = 0
        self._down_since.clear()

    # -- friendship -------------------------------------------------------

    def add_friend(self, friend: "PeerBackupService") -> None:
        """Mutual arrangement: we hold theirs, they hold ours."""
        if friend is self:
            raise ValueError("cannot befriend yourself")
        if friend not in self.friends:
            self.friends.append(friend)
            if self.monitor is not None:
                self.monitor.watch(friend.owner_name)
        if self not in friend.friends:
            friend.friends.append(self)
            if friend.monitor is not None:
                friend.monitor.watch(self.owner_name)

    @property
    def owner_name(self) -> str:
        return self.hpop.host.name

    # -- shard exchange over HTTP --------------------------------------------

    def _handle_shard_request(self, request: HttpRequest) -> HttpResponse:
        body = request.body if isinstance(request.body, dict) else {}
        action = body.get("action")
        if action == "ping":
            # Liveness probe for the failure detector. A powered-off
            # HPoP never reaches this handler — the sender's timeout is
            # the death signal.
            return ok(body_size=20, body={"pong": self.owner_name})
        key = (body.get("owner", ""), body.get("path", ""),
               body.get("index", -1))
        if action == "store":
            shard = body.get("shard")
            if not isinstance(shard, Shard):
                return HttpResponse(400, body_size=40, body="no shard")
            self.held_shards[key] = shard
            self.shards_received += 1
            self.bytes_stored_for_friends += len(shard.data)
            return ok(body_size=20)
        if action == "fetch":
            shard = self.held_shards.get(key)
            if shard is None:
                return not_found(str(key))
            return ok(body_size=len(shard.data), body=shard)
        if action == "delete":
            removed = self.held_shards.pop(key, None)
            if removed is not None:
                self.bytes_stored_for_friends -= len(removed.data)
            return ok(body_size=20)
        return HttpResponse(400, body_size=40, body="bad action")

    # -- failure detection / auto repair ----------------------------------------

    def _heartbeat_tick(self) -> None:
        if not self.running or self.monitor is None:
            return
        for friend in self.friends:
            self._ping(friend)
        self.monitor.sweep()  # verdicts fire the on_dead/on_alive hooks

    def _ping(self, friend: "PeerBackupService") -> None:
        name = friend.owner_name

        def pong(resp: HttpResponse, _stats) -> None:
            if resp.ok and self.monitor is not None:
                self.monitor.beat(name)

        assert self._client is not None
        self._client.request(
            friend.hpop.host,
            HttpRequest("POST", SHARD_ROUTE, body={"action": "ping"},
                        body_size=60),
            pong, port=443, timeout=self.heartbeat_interval,
            on_error=lambda exc: None)

    def add_peer_listener(self, fn: Callable[[str, str], None]) -> None:
        """Subscribe ``fn(state, name)`` to death/revival verdicts."""
        self.peer_listeners.append(fn)

    def _peer_dead(self, name: str) -> None:
        self._c_peers_declared_dead.inc()
        self._down_since.setdefault(name, self.sim.now)
        self.sim.tracer.start_span(
            "attic.peer_dead", parent=None, peer=name,
            owner=self.owner_name).finish()
        self._repair_attempt = 0
        self._schedule_auto_repair()
        for fn in self.peer_listeners:
            fn("dead", name)

    def _peer_recovered(self, name: str) -> None:
        self._c_peers_recovered.inc()
        self.sim.tracer.start_span(
            "attic.peer_recovered", parent=None, peer=name,
            owner=self.owner_name).finish()
        # The friend may have crashed and restarted with our shards
        # gone (held shards are volatile), so re-verify placements.
        self._repair_attempt = 0
        self._schedule_auto_repair()
        for fn in self.peer_listeners:
            fn("alive", name)

    def _schedule_auto_repair(self) -> None:
        if self._repair_pending or not self.manifest:
            return
        self._repair_pending = True
        delay = min(self.repair_backoff_cap,
                    self.repair_backoff_base * (2 ** self._repair_attempt))
        self._repair_event = self.sim.schedule(
            delay, self._auto_repair_sweep,
            label=f"{self.owner_name}.attic.auto-repair")

    def repair_now(self) -> bool:
        """Run the repair sweep immediately, skipping any backoff delay.

        The control plane's lever: an SLO alert or death verdict is
        stronger evidence than the scheduled backoff assumed, so pull
        the pending sweep forward (cancelling its timer) or start a
        fresh one. Returns True if a sweep was started.
        """
        if not self.running or not self.manifest:
            return False
        if self._repair_pending and self._repair_event is not None:
            self._repair_event.cancel()
            self._repair_event = None
        self._repair_pending = False
        self._auto_repair_sweep()
        return True

    def _auto_repair_sweep(self) -> None:
        self._repair_pending = False
        self._repair_event = None
        if not self.running:
            return
        self._c_auto_repair_sweeps.inc()
        span = self.sim.tracer.start_span(
            "attic.auto_repair", parent=None, owner=self.owner_name,
            attempt=self._repair_attempt)

        def done(ok_count: int, total: int, shards: int) -> None:
            healthy = ok_count == total
            span.finish(ok=healthy, files=total, shards_repaired=shards)
            if healthy:
                if self._down_since:
                    first = min(self._down_since.values())
                    took = self.sim.now - first
                    if self.exemplars is not None:
                        self._h_time_to_repair.observe(
                            took, exemplar=span.trace_id)
                        self.exemplars.record(
                            "peer-backup.time_to_repair_seconds", took,
                            span.trace_id)
                    else:
                        self._h_time_to_repair.observe(took)
                self._down_since.clear()
                self._repair_attempt = 0
                return
            self._repair_attempt += 1
            if self._repair_attempt >= self.max_repair_sweeps:
                self._c_auto_repair_gave_up.inc()
                self._repair_attempt = 0  # a future death re-arms the sweep
                return
            self._schedule_auto_repair()

        with self.sim.tracer.activate(span):
            self.repair_all(done)

    # -- backup -------------------------------------------------------------------

    def backup_file(self, path: str,
                    on_done: Callable[[bool], None]) -> None:
        """Erasure-code one attic file and spread shards to friends."""
        attic = self.hpop.service("attic")
        node = attic.dav.tree.lookup(path)
        if not isinstance(node, DavFile):
            raise ValueError(f"{path} is not a file")
        if len(self.friends) < self.codec.total_shards:
            raise ValueError(
                f"need {self.codec.total_shards} friends, have "
                f"{len(self.friends)}")
        payload = file_backup_bytes(path, node.content.version,
                                    node.content.size)
        shards = self.codec.encode(payload)
        holders = self.friends[: self.codec.total_shards]
        entry = BackupManifestEntry(
            path=path, version=node.content.version, size=node.content.size,
            checksum=sha256_hex(payload),
            shard_holders=[f.owner_name for f in holders],
            k=self.k, m=self.m, owner=self.owner_name)
        outstanding = {"n": len(shards), "ok": True}
        span = self.sim.tracer.start_span("attic.backup", path=path,
                                          shards=len(shards))

        def one_done(success: bool) -> None:
            outstanding["n"] -= 1
            outstanding["ok"] = outstanding["ok"] and success
            if outstanding["n"] == 0:
                if outstanding["ok"]:
                    self.manifest[path] = entry
                span.finish(ok=outstanding["ok"])
                on_done(outstanding["ok"])

        with self.sim.tracer.activate(span):
            for shard, friend in zip(shards, holders):
                self._send_shard(friend, path, shard, one_done)

    def _send_shard(self, friend: "PeerBackupService", path: str,
                    shard: Shard, done: Callable[[bool], None]) -> None:
        def sent(resp: HttpResponse, _stats) -> None:
            self.shards_sent += resp.ok
            done(resp.ok)

        assert self._client is not None
        self._client.request(
            friend.hpop.host,
            HttpRequest("POST", SHARD_ROUTE,
                        body={"action": "store", "owner": self.owner_name,
                              "path": path, "index": shard.index,
                              "shard": shard},
                        body_size=len(shard.data) + 200),
            sent, port=443, on_error=lambda exc: done(False))

    def backup_all(self, on_done: Callable[[int, int], None]) -> None:
        """Back up every file in the attic; reports (succeeded, total)."""
        attic = self.hpop.service("attic")
        files = [p for p, r in attic.dav.tree.walk("/")
                 if isinstance(r, DavFile)]
        if not files:
            self.sim.call_soon(lambda: on_done(0, 0), label="backup.empty")
            return
        counts = {"done": 0, "ok": 0}

        def one(success: bool) -> None:
            counts["done"] += 1
            counts["ok"] += success
            if counts["done"] == len(files):
                on_done(counts["ok"], len(files))

        for path in files:
            self.backup_file(path, one)

    # -- restore ---------------------------------------------------------------------

    def restore_file(self, path: str,
                     on_done: Callable[[bool], None],
                     target_attic=None) -> None:
        """Reassemble ``path`` from any k reachable shard holders.

        ``target_attic`` defaults to this HPoP's attic — pass another
        attic service to restore onto a replacement appliance.
        """
        entry = self.manifest.get(path)
        if entry is None:
            raise KeyError(f"no backup manifest for {path}")
        attic = target_attic or self.hpop.service("attic")
        holders = {f.owner_name: f for f in self.friends}
        collected: List[Shard] = []
        state = {"pending": 0, "finished": False}

        def finish(success: bool) -> None:
            if state["finished"]:
                return
            state["finished"] = True
            on_done(success)

        def try_decode() -> None:
            if len({s.index for s in collected}) >= entry.k:
                try:
                    payload = self.codec.decode(collected)
                except ValueError:
                    return
                if sha256_hex(payload) != entry.checksum:
                    finish(False)
                    return
                parent = "/".join(path.split("/")[:-1]) or "/"
                attic.dav.tree.mkcol_recursive(parent, now=self.sim.now)
                attic.dav.tree.put(path, size=entry.size,
                                   payload=f"restored:{entry.checksum[:8]}",
                                   now=self.sim.now)
                finish(True)

        def fetch_from(holder_name: str, index: int) -> None:
            friend = holders.get(holder_name)
            if friend is None:
                return
            state["pending"] += 1

            def got(resp: HttpResponse, _stats) -> None:
                state["pending"] -= 1
                if _is_shard_asked_for(resp, entry, index):
                    collected.append(resp.body)
                    try_decode()
                maybe_give_up()

            assert self._client is not None
            shard_owner = entry.owner or self.owner_name
            self._client.request(
                friend.hpop.host,
                HttpRequest("POST", SHARD_ROUTE,
                            body={"action": "fetch", "owner": shard_owner,
                                  "path": path, "index": index},
                            body_size=200),
                got, port=443,
                on_error=lambda exc: (state.__setitem__(
                    "pending", state["pending"] - 1), maybe_give_up()))

        def maybe_give_up() -> None:
            if (not state["finished"] and state["pending"] == 0
                    and len({s.index for s in collected}) < entry.k):
                finish(False)

        for index, holder_name in enumerate(entry.shard_holders):
            fetch_from(holder_name, index)
        # Only once every known holder has been asked: a holder this
        # appliance has not befriended must not end the restore while
        # fetches to the others are still to be issued.
        maybe_give_up()

    def restore_all(self, on_done: Callable[[int, int], None],
                    target_attic=None) -> None:
        """Restore everything in the manifest; reports (succeeded, total)."""
        paths = list(self.manifest)
        if not paths:
            self.sim.call_soon(lambda: on_done(0, 0), label="restore.empty")
            return
        counts = {"done": 0, "ok": 0}

        def one(success: bool) -> None:
            counts["done"] += 1
            counts["ok"] += success
            if counts["done"] == len(paths):
                on_done(counts["ok"], len(paths))

        for path in paths:
            self.restore_file(path, one, target_attic=target_attic)

    # -- repair ----------------------------------------------------------------------

    def healthy_friends(self) -> List["PeerBackupService"]:
        """Friends whose HPoP is currently running."""
        return [f for f in self.friends if f.hpop.running]

    def repair_file(self, path: str,
                    on_done: Callable[[bool, int], None],
                    max_attempts: int = 3,
                    base_backoff: float = 0.5,
                    exclude_holders: frozenset = frozenset()) -> None:
        """Detect lost shards of ``path``, rebuild them, re-place them.

        Probes every holder in the manifest; shards whose holder is gone
        (or no longer has the shard) are reconstructed from any ``k``
        survivors and pushed to healthy friends, preferring peers that do
        not already hold a shard of this file. Each placement is retried
        with exponential backoff up to ``max_attempts``. ``on_done``
        receives (fully_repaired, shards_repaired).

        ``exclude_holders`` names friends to migrate *away from*: their
        shards are treated as lost without probing and they are never
        chosen as replacement holders — the shard-evacuation primitive
        behind :meth:`evacuate_holder`.
        """
        entry = self.manifest.get(path)
        if entry is None:
            raise KeyError(f"no backup manifest for {path}")
        holders = {f.owner_name: f for f in self.friends}
        survivors: List[Shard] = []
        lost: List[int] = []
        probe = {"pending": 0}
        span = self.sim.tracer.start_span("attic.repair", path=path)
        started = self.sim.now
        inner_done = on_done

        def on_done(success: bool, repaired: int) -> None:
            self._h_repair_latency.observe(self.sim.now - started)
            span.finish(ok=success, repaired=repaired)
            inner_done(success, repaired)

        def probe_done() -> None:
            if probe["pending"] > 0:
                return
            if not lost:
                on_done(True, 0)
                return
            if len({s.index for s in survivors}) < entry.k:
                self._c_repairs_failed.inc()
                on_done(False, 0)
                return
            self._rebuild_and_replace(entry, survivors, lost, on_done,
                                      max_attempts, base_backoff,
                                      exclude_holders)

        def probe_holder(index: int, holder_name: str) -> None:
            if holder_name in exclude_holders:
                lost.append(index)
                return
            friend = holders.get(holder_name)
            if friend is None or not friend.hpop.running:
                lost.append(index)
                return
            probe["pending"] += 1

            def got(resp: HttpResponse, _stats) -> None:
                probe["pending"] -= 1
                if _is_shard_asked_for(resp, entry, index):
                    survivors.append(resp.body)
                else:
                    lost.append(index)
                probe_done()

            def failed(exc) -> None:
                probe["pending"] -= 1
                lost.append(index)
                probe_done()

            assert self._client is not None
            self._client.request(
                friend.hpop.host,
                HttpRequest("POST", SHARD_ROUTE,
                            body={"action": "fetch",
                                  "owner": entry.owner or self.owner_name,
                                  "path": path, "index": index},
                            body_size=200),
                got, port=443, on_error=failed)

        with self.sim.tracer.activate(span):
            for index, holder_name in enumerate(entry.shard_holders):
                probe_holder(index, holder_name)
            probe_done()  # covers the all-holders-dead case (no async probes)

    def _rebuild_and_replace(self, entry: BackupManifestEntry,
                             survivors: List[Shard], lost: List[int],
                             on_done: Callable[[bool, int], None],
                             max_attempts: int, base_backoff: float,
                             exclude_holders: frozenset = frozenset(),
                             ) -> None:
        """Decode from survivors, regenerate ``lost`` shards, push them."""
        try:
            payload = self.codec.decode(survivors)
        except ValueError:
            self._c_repairs_failed.inc()
            on_done(False, 0)
            return
        if sha256_hex(payload) != entry.checksum:
            self._c_repairs_failed.inc()
            on_done(False, 0)
            return
        replacement_shards = self.codec.shards_of(payload, lost)

        # Prefer healthy friends not already holding a shard of this
        # file; fall back to healthy existing holders (a peer holding
        # two shards beats a shard that does not exist anywhere).
        surviving_holder_names = {
            entry.shard_holders[s.index] for s in survivors}
        usable = [f for f in self.healthy_friends()
                  if f.owner_name not in exclude_holders]
        fresh = [f for f in usable
                 if f.owner_name not in surviving_holder_names]
        fallback = [f for f in usable
                    if f.owner_name in surviving_holder_names]
        candidates = fresh + fallback
        if len(candidates) < len(lost):
            self._c_repairs_failed.inc()
            on_done(False, 0)
            return

        state = {"left": len(lost), "ok": True, "repaired": 0}

        def one_placed(success: bool) -> None:
            state["left"] -= 1
            state["repaired"] += success
            state["ok"] = state["ok"] and success
            if state["left"] == 0:
                if state["ok"]:
                    self._c_repairs_succeeded.inc()
                else:
                    self._c_repairs_failed.inc()
                on_done(state["ok"], state["repaired"])

        for shard, friend in zip(replacement_shards, candidates):
            self._place_with_retry(entry, shard, friend, one_placed,
                                   attempt=1, max_attempts=max_attempts,
                                   base_backoff=base_backoff)

    def _place_with_retry(self, entry: BackupManifestEntry, shard: Shard,
                          friend: "PeerBackupService",
                          done: Callable[[bool], None], attempt: int,
                          max_attempts: int, base_backoff: float) -> None:
        def retry_or_fail() -> None:
            if attempt >= max_attempts:
                done(False)
                return
            self._c_repair_retries.inc()
            delay = base_backoff * (2 ** (attempt - 1))
            self.sim.schedule(
                delay,
                lambda: self._place_with_retry(
                    entry, shard, friend, done, attempt + 1,
                    max_attempts, base_backoff),
                label="backup.repair.retry")

        def stored(resp: HttpResponse, _stats) -> None:
            if not resp.ok:
                retry_or_fail()
                return
            entry.shard_holders[shard.index] = friend.owner_name
            self._c_shards_repaired.inc()
            self._c_repair_bytes.inc(len(shard.data))
            done(True)

        assert self._client is not None
        self._client.request(
            friend.hpop.host,
            HttpRequest("POST", SHARD_ROUTE,
                        body={"action": "store",
                              "owner": entry.owner or self.owner_name,
                              "path": entry.path, "index": shard.index,
                              "shard": shard},
                        body_size=len(shard.data) + 200),
            stored, port=443, on_error=lambda exc: retry_or_fail())

    def repair_all(self, on_done: Callable[[int, int, int], None]) -> None:
        """Repair every manifest entry; reports (ok, total, shards)."""
        paths = list(self.manifest)
        if not paths:
            self.sim.call_soon(lambda: on_done(0, 0, 0),
                               label="repair.empty")
            return
        counts = {"done": 0, "ok": 0, "shards": 0}

        def one(success: bool, repaired: int) -> None:
            counts["done"] += 1
            counts["ok"] += success
            counts["shards"] += repaired
            if counts["done"] == len(paths):
                on_done(counts["ok"], len(paths), counts["shards"])

        for path in paths:
            self.repair_file(path, one)

    def evacuate_holder(self, name: str,
                        on_done: Optional[Callable[[int, int], None]] = None,
                        ) -> int:
        """Migrate every shard held by friend ``name`` to other friends.

        The control plane's answer to a friend whose availability has
        degraded past tolerating: its shards are rebuilt from survivors
        and re-placed elsewhere even though the holder may currently be
        up. Returns how many manifest entries were affected; ``on_done``
        (optional) receives (files_ok, files_total) when the repairs
        finish.
        """
        paths = [p for p, e in self.manifest.items()
                 if name in e.shard_holders]
        if not paths:
            if on_done is not None:
                self.sim.call_soon(lambda: on_done(0, 0),
                                   label="evacuate.empty")
            return 0
        self._c_holders_evacuated.inc()
        span = self.sim.tracer.start_span(
            "attic.evacuate", parent=None, holder=name, files=len(paths),
            owner=self.owner_name)
        counts = {"done": 0, "ok": 0}

        def one(success: bool, _repaired: int) -> None:
            counts["done"] += 1
            counts["ok"] += success
            if counts["done"] == len(paths):
                span.finish(ok=counts["ok"] == len(paths))
                if on_done is not None:
                    on_done(counts["ok"], len(paths))

        with self.sim.tracer.activate(span):
            for path in paths:
                self.repair_file(path, one,
                                 exclude_holders=frozenset({name}))
        return len(paths)

    # -- out-of-band probing -----------------------------------------------------------

    def probe_friend(self, name: str,
                     on_verdict: Optional[Callable[[bool], None]] = None,
                     timeout: Optional[float] = None) -> None:
        """Ping one friend immediately; a miss is a death verdict.

        Cross-layer detection: when another subsystem (NoCDN failover,
        the control plane) implicates a friend, this skips the
        remaining heartbeat timeout — a failed or timed-out probe calls
        :meth:`HeartbeatMonitor.declare_dead`, firing the same
        auto-repair path a sweep verdict would, up to a full timeout
        earlier. A successful probe counts as a beat.
        """
        friend = next((f for f in self.friends if f.owner_name == name),
                      None)
        if friend is None or self.monitor is None:
            if on_verdict is not None:
                self.sim.call_soon(lambda: on_verdict(False),
                                   label="probe.unknown")
            return
        self._c_probes_sent.inc()
        probe_timeout = (timeout if timeout is not None
                         else self.heartbeat_interval or 1.0)

        def verdict(alive: bool) -> None:
            if alive:
                if self.monitor is not None:
                    self.monitor.beat(name)
            else:
                if (self.monitor is not None
                        and self.monitor.declare_dead(name)):
                    self._c_probe_deaths.inc()
            if on_verdict is not None:
                on_verdict(alive)

        def pong(resp: HttpResponse, _stats) -> None:
            verdict(resp.ok)

        assert self._client is not None
        self._client.request(
            friend.hpop.host,
            HttpRequest("POST", SHARD_ROUTE, body={"action": "ping"},
                        body_size=60),
            pong, port=443, timeout=probe_timeout,
            on_error=lambda exc: verdict(False))

    # -- accounting ---------------------------------------------------------------------

    def backed_up_bytes(self) -> int:
        return sum(e.size for e in self.manifest.values())

    def storage_overhead(self) -> float:
        return self.codec.storage_overhead()


def default_slos(source: str = ""):
    """Data-attic objectives over a scraped :class:`PeerBackupService`."""
    from repro.obs.slo import RatioSli, SloSpec, ThresholdSli

    prefix = f"{source}/" if source else ""
    return [
        SloSpec(
            name="attic-repair-success", service="attic", objective=0.9,
            sli=RatioSli(
                total=(f"{prefix}peer-backup.repairs_succeeded",
                       f"{prefix}peer-backup.repairs_failed"),
                bad=(f"{prefix}peer-backup.repairs_failed",)),
            description="File repairs that complete on the first sweep"),
        SloSpec(
            name="attic-time-to-repair", service="attic", objective=0.9,
            sli=ThresholdSli(
                f"{prefix}peer-backup.time_to_repair_seconds_p99",
                max_value=30.0),
            description="Peer-death to full-redundancy p99 under 30 s",
            exemplar_metric="peer-backup.time_to_repair_seconds"),
    ]
