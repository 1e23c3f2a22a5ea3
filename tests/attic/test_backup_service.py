"""Peer-backup service tests: shard placement and restore over the network."""

import hashlib
from dataclasses import replace

import pytest

from repro.attic.backup_service import (
    MAX_PLACE_ATTEMPTS,
    PeerBackupService,
    file_backup_bytes,
)
from repro.attic.service import DataAtticService
from repro.hpop.core import Household, Hpop, User
from repro.net.topology import build_city
from repro.sim.engine import Simulator
from repro.util import erasure
from repro.util.units import kib


def build(num_friends=6, k=3, m=2, seed=17):
    sim = Simulator(seed=seed)
    city = build_city(sim, homes_per_neighborhood=num_friends + 2)
    services = []
    for i in range(num_friends + 1):  # index 0 is the owner
        home = city.neighborhoods[0].homes[i]
        hpop = Hpop(home.hpop_host, city.network,
                    Household(name=f"h{i}", users=[User("u", "p")]))
        hpop.install(DataAtticService())
        svc = hpop.install(PeerBackupService(k=k, m=m))
        hpop.start()
        services.append(svc)
    owner = services[0]
    for friend in services[1:]:
        owner.add_friend(friend)
    return sim, city, owner, services


def put_file(owner, path, size):
    attic = owner.hpop.service("attic")
    parent = "/".join(path.split("/")[:-1]) or "/"
    attic.dav.tree.mkcol_recursive(parent)
    attic.dav.tree.put(path, size=size, payload="original")


class TestBackup:
    def test_backup_spreads_shards(self):
        sim, _city, owner, services = build()
        put_file(owner, "/u0/photos.tar", kib(200))
        done = []
        owner.backup_file("/u0/photos.tar", done.append)
        sim.run()
        assert done == [True]
        assert "/u0/photos.tar" in owner.manifest
        holders = [s for s in services[1:] if s.held_shards]
        assert len(holders) == 5  # k + m friends hold one shard each
        assert owner.shards_sent == 5

    def test_backup_needs_enough_friends(self):
        sim, _city, owner, _services = build(num_friends=3, k=3, m=2)
        put_file(owner, "/u0/f", 1000)
        with pytest.raises(ValueError):
            owner.backup_file("/u0/f", lambda ok: None)

    def test_backup_collection_rejected(self):
        sim, _city, owner, _services = build()
        owner.hpop.service("attic").dav.tree.mkcol("/dir")
        with pytest.raises(ValueError):
            owner.backup_file("/dir", lambda ok: None)

    def test_backup_all(self):
        sim, _city, owner, _services = build()
        put_file(owner, "/u0/a", 1000)
        put_file(owner, "/u0/b", 2000)
        results = []
        owner.backup_all(lambda ok, total: results.append((ok, total)))
        sim.run()
        assert results == [(2, 2)]
        assert owner.backed_up_bytes() == 3000

    def test_backup_all_empty(self):
        sim, _city, owner, _services = build()
        # Remove the user's auto-created (empty) collection content.
        results = []
        owner.backup_all(lambda ok, total: results.append((ok, total)))
        sim.run()
        assert results == [(0, 0)]


class TestRestore:
    def backed_up_world(self, paths=("/u0/docs/tax.pdf",)):
        sim, city, owner, services = build()
        done = []
        for path in paths:
            put_file(owner, path, kib(120))
            owner.backup_file(path, done.append)
        sim.run()
        assert done == [True] * len(paths)
        return sim, city, owner, services

    def test_restore_after_local_deletion(self):
        sim, _city, owner, _services = self.backed_up_world()
        attic = owner.hpop.service("attic")
        attic.dav.tree.delete("/u0/docs/tax.pdf")
        restored = []
        owner.restore_file("/u0/docs/tax.pdf", restored.append)
        sim.run()
        assert restored == [True]
        node = attic.dav.tree.lookup("/u0/docs/tax.pdf")
        assert node.content.size == kib(120)

    def test_restore_tolerates_m_dead_friends(self):
        sim, _city, owner, services = self.backed_up_world()
        holders = [s for s in services[1:] if s.held_shards]
        # Kill m=2 of the 5 shard holders.
        for dead in holders[:2]:
            dead.hpop.shutdown()
        attic = owner.hpop.service("attic")
        attic.dav.tree.delete("/u0/docs/tax.pdf")
        restored = []
        owner.restore_file("/u0/docs/tax.pdf", restored.append)
        sim.run()
        assert restored == [True]

    def test_restore_fails_below_k_shards(self):
        sim, _city, owner, services = self.backed_up_world()
        holders = [s for s in services[1:] if s.held_shards]
        for dead in holders[:3]:  # only 2 of 5 survive < k=3
            dead.hpop.shutdown()
        restored = []
        owner.restore_file("/u0/docs/tax.pdf", restored.append)
        sim.run()
        assert restored == [False]

    def replacement_appliance(self, world, unknown=()):
        """The whole-home-loss scenario: a new HPoP with the old
        manifest and friends; returns its backup service and attic.

        ``unknown`` indexes the manifest's holder list: those holders
        are not re-friended by the replacement appliance.
        """
        _sim, city, owner, services = world
        owner.hpop.shutdown()  # the house burned down
        # A replacement appliance in a new home, same friends.
        home = city.neighborhoods[0].homes[len(services)]
        new_hpop = Hpop(home.hpop_host, city.network,
                        Household(name="new", users=[User("u", "p")]))
        new_attic = new_hpop.install(DataAtticService())
        replacement = new_hpop.install(PeerBackupService(k=3, m=2))
        new_hpop.start()
        holders = owner.manifest["/u0/docs/tax.pdf"].shard_holders
        strangers = {holders[i] for i in unknown}
        for friend in services[1:]:
            if friend.owner_name not in strangers:
                replacement.add_friend(friend)
        # The manifest survives (e.g. printed QR / cloud-noted); copy it.
        replacement.manifest = dict(owner.manifest)
        return replacement, new_attic

    def restore_onto_replacement(self, unknown=()):
        world = self.backed_up_world()
        sim = world[0]
        replacement, new_attic = self.replacement_appliance(world, unknown)
        restored = []
        replacement.restore_file("/u0/docs/tax.pdf", restored.append,
                                 target_attic=new_attic)
        sim.run()
        return restored, new_attic

    def test_restore_onto_replacement_appliance(self):
        restored, new_attic = self.restore_onto_replacement()
        assert restored == [True]
        assert new_attic.dav.tree.exists("/u0/docs/tax.pdf")

    @pytest.mark.parametrize("missing", range(5))
    def test_restore_asks_every_known_holder(self, missing):
        """One holder the replacement never re-friended must not end
        the restore, wherever it sits in the manifest's holder list."""
        restored, new_attic = self.restore_onto_replacement([missing])
        assert restored == [True]
        assert new_attic.dav.tree.exists("/u0/docs/tax.pdf")

    def test_restore_fails_with_k_holders_unknown(self):
        restored, new_attic = self.restore_onto_replacement([0, 2, 4])
        assert restored == [False]  # 2 reachable < k=3, reported once
        assert not new_attic.dav.tree.exists("/u0/docs/tax.pdf")

    def test_restore_all_onto_replacement_with_k_of_n_holders_up(self):
        """Replace the appliance: every file in the manifest comes back
        onto the fresh HPoP's attic with m of its n holders dead."""
        paths = ("/u0/docs/tax.pdf", "/u0/photos/2019.tar", "/u0/notes")
        world = self.backed_up_world(paths)
        sim, _city, _owner, services = world
        replacement, new_attic = self.replacement_appliance(world)
        for dead in services[1:3]:  # m=2: every file keeps >= k holders
            dead.hpop.shutdown()
        reports = []
        replacement.restore_all(lambda ok, total: reports.append((ok, total)),
                                target_attic=new_attic)
        sim.run()
        assert reports == [(3, 3)]
        for path in paths:
            assert new_attic.dav.tree.lookup(path).content.size == kib(120)

        # A third dead friend takes some file below k: counted, not lost.
        services[3].hpop.shutdown()
        replacement.restore_all(lambda ok, total: reports.append((ok, total)),
                                target_attic=new_attic)
        sim.run()
        assert reports[1][1] == 3 and reports[1][0] < 3

    def test_restore_all_empty_manifest(self):
        sim, _city, owner, _services = build()
        reports = []
        owner.restore_all(lambda ok, total: reports.append((ok, total)))
        sim.run()
        assert reports == [(0, 0)]

    def test_restore_unknown_path(self):
        sim, _city, owner, _services = build()
        with pytest.raises(KeyError):
            owner.restore_file("/never/backed/up", lambda ok: None)

    def test_restore_decodes_once_with_every_holder_up(self, monkeypatch):
        sim, _city, owner, _services = self.backed_up_world()
        owner.hpop.service("attic").dav.tree.delete("/u0/docs/tax.pdf")
        decodes = []
        real = owner.codec.decode
        monkeypatch.setattr(owner.codec, "decode",
                            lambda shards: decodes.append(1) or real(shards))
        restored = []
        owner.restore_file("/u0/docs/tax.pdf", restored.append)
        sim.run()
        assert restored == [True]
        assert len(decodes) == 1  # the k+m-k late shards are dropped

    def test_restored_file_is_written_once_when_it_answers(self):
        sim, _city, owner, _services = self.backed_up_world()
        attic = owner.hpop.service("attic")
        attic.dav.tree.delete("/u0/docs/tax.pdf")
        answered = []
        owner.restore_file("/u0/docs/tax.pdf",
                           lambda ok: answered.append((ok, sim.now)))
        sim.run()
        (ok, at), = answered
        node = attic.dav.tree.lookup("/u0/docs/tax.pdf")
        assert ok and node.content.version == 1
        assert node.modified_at == at

    def test_friend_accounting(self):
        sim, _city, owner, services = self.backed_up_world()
        total_stored = sum(s.bytes_stored_for_friends for s in services[1:])
        # k=3 data shards of ~40 KiB each + 2 parity = ~5/3 of the file.
        assert total_stored >= kib(120)
        assert all(s.shards_received <= 1 for s in services[1:])

    def test_cannot_befriend_self(self):
        _sim, _city, owner, _services = build()
        with pytest.raises(ValueError):
            owner.add_friend(owner)


class TestRepair:
    """Peer failure injection: lost shards are rebuilt and re-placed."""

    PATH = "/u0/docs/tax.pdf"

    def backed_up_world(self, num_friends=8, k=3, m=2):
        sim, city, owner, services = build(num_friends=num_friends, k=k, m=m)
        put_file(owner, "/u0/docs/tax.pdf", kib(120))
        done = []
        owner.backup_file("/u0/docs/tax.pdf", done.append)
        sim.run()
        assert done == [True]
        return sim, city, owner, services

    def holders_of(self, owner, services, path="/u0/docs/tax.pdf"):
        names = set(owner.manifest[path].shard_holders)
        return [s for s in services[1:] if s.owner_name in names]

    def test_repair_replaces_dead_holders(self):
        sim, _city, owner, services = self.backed_up_world()
        holders = self.holders_of(owner, services)
        dead = holders[:2]
        for svc in dead:
            svc.hpop.shutdown()
        results = []
        owner.repair_file("/u0/docs/tax.pdf",
                          lambda ok, n: results.append((ok, n)))
        sim.run()
        assert results == [(True, 2)]
        entry = owner.manifest["/u0/docs/tax.pdf"]
        dead_names = {d.owner_name for d in dead}
        # Dead peers are out of the manifest; replacements are alive and
        # actually hold the shard index they were assigned.
        assert not dead_names & set(entry.shard_holders)
        by_name = {s.owner_name: s for s in services[1:]}
        for index, holder_name in enumerate(entry.shard_holders):
            holder = by_name[holder_name]
            assert holder.hpop.running
            key = (owner.owner_name, "/u0/docs/tax.pdf", index)
            assert key in holder.held_shards
        assert owner.metrics.value("shards_repaired") == 2
        assert owner.metrics.value("repair_bytes") > 0

    def test_payload_stays_decodable_through_successive_failures(self):
        # Kill peers mid-simulation in waves; repair between waves; the
        # file must remain restorable the whole time.
        sim, _city, owner, services = self.backed_up_world(num_friends=10)
        attic = owner.hpop.service("attic")
        for wave in range(3):
            victim_name = owner.manifest["/u0/docs/tax.pdf"].shard_holders[0]
            victim = next(s for s in services[1:]
                          if s.owner_name == victim_name)
            victim.hpop.shutdown()
            repaired = []
            owner.repair_file("/u0/docs/tax.pdf",
                              lambda ok, n: repaired.append((ok, n)))
            sim.run()
            assert repaired == [(True, 1)], f"wave {wave}"
            attic.dav.tree.delete("/u0/docs/tax.pdf")
            restored = []
            owner.restore_file("/u0/docs/tax.pdf", restored.append)
            sim.run()
            assert restored == [True], f"wave {wave}"
        assert owner.metrics.value("shards_repaired") == 3
        assert owner.metrics.value("repairs_succeeded") == 3

    def test_repair_noop_when_all_holders_alive(self):
        sim, _city, owner, _services = self.backed_up_world()
        results = []
        owner.repair_file("/u0/docs/tax.pdf",
                          lambda ok, n: results.append((ok, n)))
        sim.run()
        assert results == [(True, 0)]
        assert owner.metrics.value("shards_repaired") == 0

    def test_repair_fails_below_k_survivors(self):
        sim, _city, owner, services = self.backed_up_world()
        holders = self.holders_of(owner, services)
        for svc in holders[:3]:  # 2 of 5 survive < k=3
            svc.hpop.shutdown()
        results = []
        owner.repair_file("/u0/docs/tax.pdf",
                          lambda ok, n: results.append((ok, n)))
        sim.run()
        assert results == [(False, 0)]
        assert owner.metrics.value("repairs_failed") == 1

    def test_repair_all(self):
        sim, _city, owner, services = self.backed_up_world()
        put_file(owner, "/u0/more.bin", kib(40))
        done = []
        owner.backup_file("/u0/more.bin", done.append)
        sim.run()
        assert done == [True]
        victim = self.holders_of(owner, services)[0]
        victim.hpop.shutdown()
        results = []
        owner.repair_all(lambda ok, total, shards:
                         results.append((ok, total, shards)))
        sim.run()
        (ok, total, shards), = results
        assert ok == total == 2
        assert shards >= 1  # the victim held a shard of at least one file

    def test_repair_retries_transient_store_failure(self):
        from repro.attic.backup_service import SHARD_ROUTE
        from repro.http.messages import HttpResponse

        sim, _city, owner, services = self.backed_up_world()
        victim = self.holders_of(owner, services)[0]
        victim.hpop.shutdown()
        # Inject one transient failure: the first repair "store" anywhere
        # in the fleet gets a 503, the retry goes through untouched.
        flaky = {"left": 1}
        for svc in services[1:]:
            if not svc.hpop.running:
                continue
            for route in svc.hpop.http._routes[""]:
                if route.prefix != SHARD_ROUTE:
                    continue
                real = route.handler

                def wrapper(request, real=real):
                    body = request.body if isinstance(request.body, dict) else {}
                    if body.get("action") == "store" and flaky["left"] > 0:
                        flaky["left"] -= 1
                        return HttpResponse(503, body_size=20, body="busy")
                    return real(request)

                route.handler = wrapper
        results = []
        owner.repair_file("/u0/docs/tax.pdf",
                          lambda ok, n: results.append((ok, n)))
        sim.run()
        assert results == [(True, 1)]
        assert flaky["left"] == 0
        assert owner.metrics.value("repair_retries") == 1
        assert owner.metrics.value("shards_repaired") == 1

    def test_repair_gives_up_after_max_attempts(self):
        from repro.attic.backup_service import SHARD_ROUTE
        from repro.http.messages import HttpResponse

        sim, _city, owner, services = self.backed_up_world()
        victim = self.holders_of(owner, services)[0]
        victim.hpop.shutdown()
        # Every store in the fleet fails: the repair must exhaust its
        # retries and report failure rather than loop forever.
        for svc in services[1:]:
            if not svc.hpop.running:
                continue
            for route in svc.hpop.http._routes[""]:
                if route.prefix != SHARD_ROUTE:
                    continue
                real = route.handler

                def wrapper(request, real=real):
                    body = request.body if isinstance(request.body, dict) else {}
                    if body.get("action") == "store":
                        return HttpResponse(503, body_size=20, body="busy")
                    return real(request)

                route.handler = wrapper
        results = []
        owner.repair_file("/u0/docs/tax.pdf",
                          lambda ok, n: results.append((ok, n)))
        sim.run()
        assert results == [(False, 0)]
        assert owner.metrics.value("repair_retries") \
            == MAX_PLACE_ATTEMPTS - 1 == 2
        assert owner.metrics.value("repairs_failed") == 1

    def test_repair_unknown_path(self):
        _sim, _city, owner, _services = build()
        with pytest.raises(KeyError):
            owner.repair_file("/never/backed/up", lambda ok, n: None)

    def test_decode_cache_hit_rate_gauge(self):
        sim, _city, owner, services = self.backed_up_world()
        victim = self.holders_of(owner, services)[0]
        victim.hpop.shutdown()
        results = []
        owner.repair_file("/u0/docs/tax.pdf",
                          lambda ok, n: results.append(ok))
        sim.run()
        assert results == [True]
        # The gauge is wired through to the codec's cache stats.
        assert (owner.metrics.value("decode_cache_hit_rate")
                == owner.codec.decode_cache_stats.hit_rate)


    # -- a holder's answer is outside input ----------------------------------

    @pytest.mark.parametrize("forged", [
        pytest.param({"index": 99}, id="index-past-the-geometry"),
        pytest.param({"index": -1}, id="negative-index"),
        pytest.param({"k": 4}, id="other-geometry"),
    ])
    def test_restore_and_repair_treat_a_wrong_shard_as_a_miss(self, forged):
        sim, _city, owner, services = self.backed_up_world()
        entry = owner.manifest[self.PATH]
        by_name = {s.owner_name: s for s in services[1:]}
        liar = by_name[entry.shard_holders[0]]
        key = (owner.owner_name, self.PATH, 0)
        honest_shard = liar.held_shards[key]
        liar.held_shards[key] = replace(honest_shard, **forged)

        # Restore: the k+m-1 honest holders still carry the file.
        owner.hpop.service("attic").dav.tree.delete(self.PATH)
        restored = []
        owner.restore_file(self.PATH, restored.append)
        sim.run()
        assert restored == [True]

        # Repair: the liar's shard counts as lost and is placed again
        # (on the liar itself if it is the first healthy candidate).
        results = []
        owner.repair_file(self.PATH, lambda ok, n: results.append((ok, n)))
        sim.run()
        assert results == [(True, 1)]
        assert by_name[entry.shard_holders[0]].held_shards[key] \
            == honest_shard

    # -- counts, not timings: coefficient rows handed to the GF(256) kernel --

    @pytest.mark.parametrize("lost, rows_coded", [
        pytest.param((0, 1, 2), 3, id="three-data-shards"),   # was 3 + 3
        pytest.param((7,), 1, id="one-parity-shard"),         # was 0 + 3
        pytest.param((), 0, id="healthy"),
    ])
    def test_repair_codes_only_the_shards_it_lost(self, monkeypatch, lost,
                                                  rows_coded):
        sim, _city, owner, services = self.backed_up_world(
            num_friends=12, k=6, m=3)
        entry = owner.manifest[self.PATH]
        by_name = {s.owner_name: s for s in services[1:]}
        for index in lost:
            by_name[entry.shard_holders[index]].hpop.shutdown()
        handed = []
        kernel = erasure._rows_times_shards

        def recording(rows, shards, shard_len):
            handed.extend(rows)
            return kernel(rows, shards, shard_len)

        monkeypatch.setattr(erasure, "_rows_times_shards", recording)
        results = []
        owner.repair_file(self.PATH, lambda ok, n: results.append((ok, n)))
        sim.run()
        assert results == [(True, len(lost))]
        assert len(handed) == rows_coded


class TestPinnedSchedule:
    """One backup → lose three holders → repair → restore round at
    RS(6,3), pinned to literals: a run-twice test cannot see a
    reordering of requests or callbacks that both runs share."""

    PATHS = ("/u0/a.bin", "/u0/b.bin")

    def run_round(self):
        sim, _city, owner, services = build(num_friends=12, k=6, m=3)
        requests = []
        real = owner._client.request

        def recording(server, request, *args, **kwargs):
            body = request.body
            requests.append((server.name, body.get("action"),
                             body.get("owner"), body.get("path"),
                             body.get("index"), request.body_size,
                             kwargs.get("port"), kwargs.get("timeout")))
            return real(server, request, *args, **kwargs)

        owner._client.request = recording
        done = []

        def report(phase, path):
            return lambda ok, *rest: done.append(
                (phase, path, ok, *rest, sim.now))

        for path, size in zip(self.PATHS, (kib(60), kib(90))):
            put_file(owner, path, size)
            owner.backup_file(path, report("backup", path))
        sim.run()
        by_name = {s.owner_name: s for s in services[1:]}
        holders = owner.manifest[self.PATHS[0]].shard_holders
        for index in (1, 4, 7):  # two data shards and one parity shard
            by_name[holders[index]].hpop.shutdown()
        for path in self.PATHS:
            owner.repair_file(path, report("repair", path))
        sim.run()
        tree = owner.hpop.service("attic").dav.tree
        for path in self.PATHS:
            tree.delete(path)
            owner.restore_file(path, report("restore", path))
        sim.run()
        return sim, owner, services, done, requests

    def test_every_answer_lands_at_its_pinned_time(self):
        sim, owner, services, done, _requests = self.run_round()
        a, b = self.PATHS
        assert done == [
            ("backup", a, True, 0.005548219178082192),
            ("backup", b, True, 0.006809069589041096),
            ("repair", a, True, 3, 0.015626728767123288),
            ("repair", b, True, 3, 0.016805084931506852),
            ("restore", a, True, 0.020191484931506853),
            ("restore", b, True, 0.021319004931506853),
        ]
        assert sim.events_fired == 279
        assert owner.shards_sent == 18
        assert sum(s.bytes_stored_for_friends for s in services[1:]) \
            == 307200
        assert {name: owner.metrics.value(name) for name in (
            "shards_repaired", "repair_bytes", "repair_retries",
            "repairs_succeeded", "repairs_failed")} == {
            "shards_repaired": 6, "repair_bytes": 76800,
            "repair_retries": 0, "repairs_succeeded": 2,
            "repairs_failed": 0}

    def test_every_request_is_issued_in_its_pinned_order(self):
        _sim, _owner, _services, _done, requests = self.run_round()
        assert len(requests) == 54
        # (holder, action, owner, path, index, body_size, port, timeout)
        assert hashlib.sha256(repr(requests).encode()).hexdigest() == (
            "f956d3c6ed4549887e455f38d3470a891f2e793e1902338b0e0827738396c3b3")


class TestCanonicalBytes:
    def test_deterministic_and_version_sensitive(self):
        a = file_backup_bytes("/f", 1, 100)
        b = file_backup_bytes("/f", 1, 100)
        c = file_backup_bytes("/f", 2, 100)
        assert a == b and a != c and len(a) == 100


class TestControlPrimitives:
    """The remediation hooks the control plane drives: immediate repair,
    holder evacuation, and targeted liveness probes."""

    def backed_up_world(self, num_friends=8, k=3, m=2):
        # Like build(), but the owner runs the heartbeat monitor the
        # control plane's probes and verdicts go through.
        sim = Simulator(seed=17)
        city = build_city(sim, homes_per_neighborhood=num_friends + 2)
        services = []
        for i in range(num_friends + 1):
            home = city.neighborhoods[0].homes[i]
            hpop = Hpop(home.hpop_host, city.network,
                        Household(name=f"h{i}", users=[User("u", "p")]))
            hpop.install(DataAtticService())
            svc = hpop.install(PeerBackupService(
                k=k, m=m, heartbeat_interval=1.0))
            hpop.start()
            services.append(svc)
        owner = services[0]
        for friend in services[1:]:
            owner.add_friend(friend)
        put_file(owner, "/u0/docs/tax.pdf", kib(120))
        done = []
        owner.backup_file("/u0/docs/tax.pdf", done.append)
        sim.run_until(sim.now + 5.0)
        assert done == [True]
        return sim, city, owner, services

    def test_repair_now_sweeps_immediately(self):
        sim, _city, owner, services = self.backed_up_world()
        victim = next(s for s in services[1:]
                      if s.owner_name in owner.manifest[
                          "/u0/docs/tax.pdf"].shard_holders)
        victim.hpop.shutdown()
        owner.monitor.declare_dead(victim.owner_name)
        assert owner.repair_now() is True
        sim.run()
        entry = owner.manifest["/u0/docs/tax.pdf"]
        assert victim.owner_name not in entry.shard_holders
        assert owner.metrics.value("shards_repaired") >= 1

    def test_repair_now_without_manifest_is_noop(self):
        sim, _city, owner, _services = build()
        assert owner.repair_now() is False

    def test_evacuate_holder_moves_shards_off_live_peer(self):
        sim, _city, owner, services = self.backed_up_world()
        entry = owner.manifest["/u0/docs/tax.pdf"]
        target = entry.shard_holders[0]
        moved = owner.evacuate_holder(target)
        assert moved == 1  # one manifest entry listed it
        sim.run()
        entry = owner.manifest["/u0/docs/tax.pdf"]
        assert target not in entry.shard_holders
        # The file is still fully redundant on the survivors.
        by_name = {s.owner_name: s for s in services[1:]}
        for index, holder_name in enumerate(entry.shard_holders):
            key = (owner.owner_name, "/u0/docs/tax.pdf", index)
            assert key in by_name[holder_name].held_shards
        assert owner.metrics.value("holders_evacuated") == 1

    def test_evacuate_holder_without_shards_is_noop(self):
        sim, _city, owner, _services = self.backed_up_world()
        assert owner.evacuate_holder("nobody-holds-anything") == 0

    def test_probe_friend_beats_monitor_when_alive(self):
        sim, _city, owner, services = self.backed_up_world()
        friend = services[1]
        owner.probe_friend(friend.owner_name)
        sim.run()
        assert owner.monitor.is_alive(friend.owner_name)
        assert owner.metrics.value("probes_sent") == 1
        assert owner.metrics.value("probe_deaths") == 0

    def test_probe_friend_declares_dead_on_timeout(self):
        sim, _city, owner, services = self.backed_up_world()
        friend = services[1]
        friend.hpop.shutdown()
        owner.probe_friend(friend.owner_name)
        sim.run()
        assert not owner.monitor.is_alive(friend.owner_name)
        assert owner.metrics.value("probes_sent") == 1
        assert owner.metrics.value("probe_deaths") == 1

    def test_probe_of_a_stranger_sends_nothing(self):
        sim, _city, owner, _services = self.backed_up_world()
        owner.probe_friend("nobody-we-know")
        assert owner.metrics.value("probes_sent") == 0
