"""The peer-backup service: erasure-coded shards on friends' HPoPs.

:mod:`repro.attic.backup` models availability analytically; this module
is the *operational* mechanism: an HPoP service that

- erasure-codes each attic file (real Reed-Solomon over GF(256)),
- pushes one shard to each friend HPoP over real simulated HTTP,
- restores files from any ``k`` reachable friends after a loss —
  the paper's "redundantly encoding the contents ... and storing pieces
  with a variety of peers".

Every exchange with a friend is one POST to :data:`SHARD_ROUTE` (one
RPC, three verbs: ``ping``, ``fetch``, ``store``).

Shard bytes are the file's canonical derived bytes (the same stand-in
used for content hashing), so a restore is verified end to end: the
decoded payload must hash to the original.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.faults.detector import HeartbeatMonitor
from repro.hpop.core import Hpop, HpopService
from repro.http.client import HttpClient, fan_in
from repro.http.messages import HttpRequest, HttpResponse, not_found, ok
from repro.metrics.counters import MetricsRegistry
from repro.util.crypto import derive_payload, sha256_hex
from repro.util.erasure import ReedSolomonCodec, Shard
from repro.webdav.resources import DavFile

SHARD_ROUTE = "/backup/shard"

# Auto-repair: backoff base and cap (s), failed sweeps before giving up.
REPAIR_BACKOFF_BASE = 0.5
REPAIR_BACKOFF_CAP = 30.0
MAX_REPAIR_SWEEPS = 6
# Placing one rebuilt shard: attempts, and the first retry's delay (s).
MAX_PLACE_ATTEMPTS = 3
PLACE_BACKOFF = 0.5


def file_backup_bytes(path: str, version: int, size: int) -> bytes:
    """Canonical bytes for an attic file (matches the content model)."""
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
    owner: str


def _is_shard_asked_for(resp: Optional[HttpResponse],
                        entry: BackupManifestEntry, index: int) -> bool:
    """Whether a fetch was answered with the shard it named.

    A holder's reply is outside input: anything else -- no answer, an
    error, a body that is no ``Shard``, a shard of another index or
    geometry -- is a miss, because one bad shard among the collected
    ones would make every later decode of them raise.
    """
    if resp is None or not resp.ok:
        return False
    body = resp.body
    return (isinstance(body, Shard)
            and (body.index, body.k, body.m) == (index, entry.k, entry.m))


class PeerBackupService(HpopService):
    """Install on an HPoP; add friends; back up and restore the attic.

    With ``heartbeat_interval`` set, the service also runs a failure
    detector: it pings every friend each interval and declares one dead
    when no pong arrives within three intervals. A death — or a
    recovery, since a crashed friend may come back with its held shards
    gone — triggers an automatic :meth:`repair_all` sweep, retried with
    capped exponential backoff until the manifest is back at full
    redundancy or ``MAX_REPAIR_SWEEPS`` consecutive sweeps fail.
    """

    name = "peer-backup"

    def __init__(self, k: int = 4, m: int = 2,
                 heartbeat_interval: Optional[float] = None) -> None:
        super().__init__()
        self.codec = ReedSolomonCodec(k, m)
        self.k = k
        self.m = m
        self.heartbeat_interval = heartbeat_interval
        self.monitor: Optional[HeartbeatMonitor] = None
        self._repair_event = None  # the scheduled sweep, if one is due
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
            "auto-repair abandoned after MAX_REPAIR_SWEEPS failures")
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
        self.monitor = HeartbeatMonitor(
            self.sim, 3 * self.heartbeat_interval,
            on_dead=functools.partial(self._peer_verdict, "dead"),
            on_alive=functools.partial(self._peer_verdict, "alive"))
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
        self._repair_event = None
        self._repair_attempt = 0
        self._down_since.clear()

    # -- friendship -------------------------------------------------------

    def add_friend(self, friend: "PeerBackupService") -> None:
        """Mutual arrangement: we hold theirs, they hold ours."""
        if friend is self:
            raise ValueError("cannot befriend yourself")
        for one, other in ((self, friend), (friend, self)):
            if other not in one.friends:
                one.friends.append(other)
                if one.monitor is not None:
                    one.monitor.watch(other.owner_name)

    @property
    def owner_name(self) -> str:
        return self.hpop.host.name

    # -- the shard exchange: one RPC, three verbs ----------------------------

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
        return HttpResponse(400, body_size=40, body="bad action")

    def _rpc(self, friend: "PeerBackupService", body: dict, body_size: int,
             on_reply: Callable[[Optional[HttpResponse]], None],
             timeout: Optional[float] = None) -> None:
        """POST ``body`` to ``friend``'s shard route; ``on_reply`` gets
        the response, or ``None`` when the exchange failed."""
        assert self._client is not None
        self._client.request(
            friend.hpop.host,
            HttpRequest("POST", SHARD_ROUTE, body=body, body_size=body_size),
            lambda resp, _stats: on_reply(resp), port=443, timeout=timeout,
            on_error=lambda _exc: on_reply(None))

    def _ping(self, friend: "PeerBackupService", timeout: float,
              on_alive: Callable[[bool], None]) -> None:
        """``on_alive(True)`` if ``friend`` pongs within ``timeout``."""
        self._rpc(friend, {"action": "ping"}, 60,
                  lambda resp: on_alive(resp is not None and resp.ok),
                  timeout)

    def _fetch(self, entry: BackupManifestEntry, index: int,
               friend: "PeerBackupService",
               on_shard: Callable[[Optional[Shard]], None]) -> None:
        """Ask ``friend`` for shard ``index`` of ``entry``; ``on_shard``
        gets it, or ``None`` for an error or any other answer."""
        self._rpc(friend, {"action": "fetch", "owner": entry.owner,
                           "path": entry.path, "index": index}, 200,
                  lambda resp: on_shard(
                      resp.body if _is_shard_asked_for(resp, entry, index)
                      else None))

    def _store(self, entry: BackupManifestEntry, shard: Shard,
               friend: "PeerBackupService",
               on_stored: Callable[[bool], None]) -> None:
        """Ask ``friend`` to hold ``shard`` of ``entry``; ``on_stored(ok)``."""
        self._rpc(friend, {"action": "store", "owner": entry.owner,
                           "path": entry.path, "index": shard.index,
                           "shard": shard},
                  len(shard.data) + 200,
                  lambda resp: on_stored(resp is not None and resp.ok))

    # -- failure detection / auto repair ----------------------------------------

    def _heartbeat_tick(self) -> None:
        if not self.running or self.monitor is None:
            return
        for friend in self.friends:
            self._ping(friend, self.heartbeat_interval,
                       functools.partial(self._pong, friend.owner_name))
        self.monitor.sweep()  # verdicts fire the on_dead/on_alive hooks

    def _pong(self, name: str, alive: bool) -> None:
        if alive and self.monitor is not None:
            self.monitor.beat(name)

    def add_peer_listener(self, fn: Callable[[str, str], None]) -> None:
        """Subscribe ``fn(state, name)`` to death/revival verdicts."""
        self.peer_listeners.append(fn)

    def _peer_verdict(self, state: str, name: str) -> None:
        # Either verdict ("dead" or "alive") re-verifies placements: a
        # friend may come back with our shards gone (they are volatile).
        dead = state == "dead"
        if dead:
            self._down_since.setdefault(name, self.sim.now)
        (self._c_peers_declared_dead if dead
         else self._c_peers_recovered).inc()
        self.sim.tracer.start_span(
            "attic.peer_dead" if dead else "attic.peer_recovered",
            parent=None, peer=name, owner=self.owner_name).finish()
        self._repair_attempt = 0
        self._schedule_auto_repair()
        for fn in self.peer_listeners:
            fn(state, name)

    def _schedule_auto_repair(self) -> None:
        if self._repair_event is not None or not self.manifest:
            return
        delay = min(REPAIR_BACKOFF_CAP,
                    REPAIR_BACKOFF_BASE * (2 ** self._repair_attempt))
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
        if self._repair_event is not None:
            self._repair_event.cancel()
        self._auto_repair_sweep()
        return True

    def _auto_repair_sweep(self) -> None:
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
                    took = self.sim.now - min(self._down_since.values())
                    exemplar = (None if self.exemplars is None
                                else span.trace_id)
                    self._h_time_to_repair.observe(took, exemplar=exemplar)
                    if self.exemplars is not None:
                        self.exemplars.record(
                            "peer-backup.time_to_repair_seconds", took,
                            exemplar)
                self._down_since.clear()
                self._repair_attempt = 0
                return
            self._repair_attempt += 1
            if self._repair_attempt >= MAX_REPAIR_SWEEPS:
                self._c_auto_repair_gave_up.inc()
                self._repair_attempt = 0  # a future death re-arms the sweep
                return
            self._schedule_auto_repair()

        with self.sim.tracer.activate(span):
            self.repair_all(done)

    def _for_each(self, paths: List[str],
                  start: Callable[[str, Callable[..., None]], None],
                  on_done: Callable[..., None], empty_label: str,
                  empty: Tuple[int, ...]) -> None:
        """``start(path, one)`` per path, then ``on_done(succeeded, total,
        *other column sums)``; no paths: ``on_done(*empty)``, next event."""
        if not paths:
            self.sim.call_soon(lambda: on_done(*empty), label=empty_label)
            return

        def tally(results: List[tuple]) -> None:
            succeeded, *rest = (sum(column) for column in zip(*results))
            on_done(succeeded, len(paths), *rest)

        one = fan_in(len(paths), tally)
        for path in paths:
            start(path, one)

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
        span = self.sim.tracer.start_span("attic.backup", path=path,
                                          shards=len(shards))

        def all_sent(results: List[tuple]) -> None:
            self.shards_sent += sum(sent for sent, in results)
            success = all(sent for sent, in results)
            if success:
                self.manifest[path] = entry
            span.finish(ok=success)
            on_done(success)

        one = fan_in(len(shards), all_sent)
        with self.sim.tracer.activate(span):
            for shard, friend in zip(shards, holders):
                self._store(entry, shard, friend, one)

    def backup_all(self, on_done: Callable[[int, int], None]) -> None:
        """Back up every file in the attic; reports (succeeded, total)."""
        attic = self.hpop.service("attic")
        files = [p for p, r in attic.dav.tree.walk("/")
                 if isinstance(r, DavFile)]
        self._for_each(files, self.backup_file, on_done, "backup.empty",
                       (0, 0))

    # -- restore ---------------------------------------------------------------------

    def restore_file(self, path: str,
                     on_done: Callable[[bool], None],
                     target_attic=None) -> None:
        """Reassemble ``path`` from any k reachable shard holders.

        ``target_attic`` defaults to this HPoP's attic — pass another
        attic service to restore onto a replacement appliance. Once the
        restore has answered, shards still arriving are dropped.
        """
        entry = self.manifest.get(path)
        if entry is None:
            raise KeyError(f"no backup manifest for {path}")
        attic = target_attic or self.hpop.service("attic")
        holders = {f.owner_name: f for f in self.friends}
        # A holder this appliance has not befriended is not asked.
        asked = [(index, holders[name])
                 for index, name in enumerate(entry.shard_holders)
                 if name in holders]
        collected: List[Shard] = []
        finished = False

        def finish(success: bool) -> None:
            nonlocal finished
            finished = True
            on_done(success)

        def decode() -> None:
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

        def all_answered(_results: List[tuple]) -> None:
            if not finished and len({s.index for s in collected}) < entry.k:
                finish(False)

        answered = fan_in(len(asked), all_answered)

        def got(shard: Optional[Shard]) -> None:
            if shard is not None and not finished:  # else a late one: dropped
                collected.append(shard)
                if len({s.index for s in collected}) >= entry.k:
                    decode()
            answered()

        for index, friend in asked:
            self._fetch(entry, index, friend, got)

    def restore_all(self, on_done: Callable[[int, int], None],
                    target_attic=None) -> None:
        """Restore everything in the manifest; reports (succeeded, total)."""
        self._for_each(
            list(self.manifest),
            lambda path, one: self.restore_file(path, one,
                                                target_attic=target_attic),
            on_done, "restore.empty", (0, 0))

    # -- repair ----------------------------------------------------------------------

    def repair_file(self, path: str,
                    on_done: Callable[[bool, int], None],
                    exclude_holders: frozenset = frozenset()) -> None:
        """Detect lost shards of ``path``, rebuild them, re-place them.

        Probes every holder in the manifest; shards whose holder is gone
        (or no longer has the shard) are reconstructed from any ``k``
        survivors and pushed to healthy friends, preferring peers that do
        not already hold a shard of this file. Each placement is retried
        with exponential backoff up to ``MAX_PLACE_ATTEMPTS`` times.
        ``on_done`` receives (fully_repaired, shards_repaired).

        ``exclude_holders`` names friends to migrate *away from*: their
        shards are treated as lost without probing and they are never
        chosen as replacement holders — the shard-evacuation primitive
        behind :meth:`evacuate_holder`.
        """
        entry = self.manifest.get(path)
        if entry is None:
            raise KeyError(f"no backup manifest for {path}")
        holders = {f.owner_name: f for f in self.friends}
        lost: List[int] = []
        asked = []
        for index, holder_name in enumerate(entry.shard_holders):
            friend = holders.get(holder_name)
            if (holder_name in exclude_holders or friend is None
                    or not friend.hpop.running):
                lost.append(index)
            else:
                asked.append((index, friend))
        span = self.sim.tracer.start_span("attic.repair", path=path)
        started = self.sim.now

        def finish(success: bool, repaired: int) -> None:
            self._h_repair_latency.observe(self.sim.now - started)
            span.finish(ok=success, repaired=repaired)
            on_done(success, repaired)

        def probed(results: List[tuple]) -> None:
            survivors = [shard for _i, shard in results if shard is not None]
            lost.extend(index for index, shard in results if shard is None)
            if not lost:
                finish(True, 0)
            elif (len({s.index for s in survivors}) < entry.k
                  or not self._rebuild_and_replace(
                      entry, survivors, lost, finish, exclude_holders)):
                self._c_repairs_failed.inc()
                finish(False, 0)

        with self.sim.tracer.activate(span):
            one = fan_in(len(asked), probed)
            for index, friend in asked:
                self._fetch(entry, index, friend,
                            functools.partial(one, index))

    def _rebuild_and_replace(self, entry: BackupManifestEntry,
                             survivors: List[Shard], lost: List[int],
                             on_done: Callable[[bool, int], None],
                             exclude_holders: frozenset) -> bool:
        """Decode from survivors, regenerate ``lost`` shards, push them;
        False, pushing nothing, if that cannot start."""
        try:
            payload = self.codec.decode(survivors)
        except ValueError:
            return False
        if sha256_hex(payload) != entry.checksum:
            return False
        replacement_shards = self.codec.shards_of(payload, lost)

        # Prefer healthy friends not already holding a shard of this
        # file; fall back to healthy existing holders (a peer holding
        # two shards beats a shard that does not exist anywhere). The
        # sort is stable, so each group keeps the friends' order.
        surviving_holder_names = {
            entry.shard_holders[s.index] for s in survivors}
        candidates = sorted(
            (f for f in self.friends if f.hpop.running
             and f.owner_name not in exclude_holders),
            key=lambda f: f.owner_name in surviving_holder_names)
        if len(candidates) < len(lost):
            return False

        def all_placed(results: List[tuple]) -> None:
            success = all(placed for placed, in results)
            if success:
                self._c_repairs_succeeded.inc()
            else:
                self._c_repairs_failed.inc()
            on_done(success, sum(placed for placed, in results))

        one = fan_in(len(lost), all_placed)
        for shard, friend in zip(replacement_shards, candidates):
            self._place_with_retry(entry, shard, friend, one)
        return True

    def _place_with_retry(self, entry: BackupManifestEntry, shard: Shard,
                          friend: "PeerBackupService",
                          done: Callable[[bool], None],
                          attempt: int = 1) -> None:
        def stored(success: bool) -> None:
            if success:
                entry.shard_holders[shard.index] = friend.owner_name
                self._c_shards_repaired.inc()
                self._c_repair_bytes.inc(len(shard.data))
                done(True)
            elif attempt >= MAX_PLACE_ATTEMPTS:
                done(False)
            else:
                self._c_repair_retries.inc()
                self.sim.schedule(
                    PLACE_BACKOFF * (2 ** (attempt - 1)),
                    lambda: self._place_with_retry(
                        entry, shard, friend, done, attempt + 1),
                    label="backup.repair.retry")

        self._store(entry, shard, friend, stored)

    def repair_all(self, on_done: Callable[[int, int, int], None]) -> None:
        """Repair every manifest entry; reports (ok, total, shards)."""
        self._for_each(list(self.manifest), self.repair_file, on_done,
                       "repair.empty", (0, 0, 0))

    def evacuate_holder(self, name: str) -> int:
        """Migrate every shard held by friend ``name`` to other friends.

        The control plane's answer to a friend whose availability has
        degraded past tolerating: its shards are rebuilt from survivors
        and re-placed elsewhere even though the holder may currently be
        up. Returns how many manifest entries were affected.
        """
        paths = [p for p, e in self.manifest.items()
                 if name in e.shard_holders]
        if not paths:
            return 0
        self._c_holders_evacuated.inc()
        span = self.sim.tracer.start_span(
            "attic.evacuate", parent=None, holder=name, files=len(paths),
            owner=self.owner_name)
        one = fan_in(len(paths), lambda results: span.finish(
            ok=all(success for success, _repaired in results)))
        away = frozenset({name})
        with self.sim.tracer.activate(span):
            for path in paths:
                self.repair_file(path, one, exclude_holders=away)
        return len(paths)

    # -- out-of-band probing -----------------------------------------------------------

    def probe_friend(self, name: str) -> None:
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
            return
        self._c_probes_sent.inc()

        def verdict(alive: bool) -> None:
            if alive:
                self._pong(name, True)
            elif (self.monitor is not None
                    and self.monitor.declare_dead(name)):
                self._c_probe_deaths.inc()

        self._ping(friend, self.heartbeat_interval, verdict)

    # -- accounting ---------------------------------------------------------------------

    def backed_up_bytes(self) -> int:
        return sum(e.size for e in self.manifest.values())


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
