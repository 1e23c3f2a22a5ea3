"""Remediation rules: what each one proposes, against light stubs."""

import pytest

from repro.control import (
    Controller,
    attic_migrate_rule,
    attic_probe_rule,
    attic_repair_rule,
    dcol_rotate_rule,
    nocdn_rerank_rule,
    reregister_rule,
)
from repro.net.address import Address
from repro.naming.dns import StubResolver, Zone
from repro.sim.engine import Simulator


def make_controller(seed=5):
    sim = Simulator(seed=seed)
    return sim, Controller(sim)


class FakeLoader:
    def __init__(self):
        self.peer_failure_counts = {}


class FakeProvider:
    def __init__(self, sim):
        self.sim = sim
        self.quarantined = []

    def quarantine_peer(self, peer_id, duration):
        self.quarantined.append((peer_id, duration))
        return self.sim.now + duration


class FakeMonitor:
    def __init__(self):
        self.alive = {}
        self.declared = []

    def is_alive(self, name):
        return self.alive.get(name, True)

    def declare_dead(self, name):
        self.declared.append(name)
        return True


class FakeBackup:
    def __init__(self, friends=("h1", "h2", "h3")):
        self.owner_name = "h0"
        self.friends = [type("F", (), {"owner_name": n})() for n in friends]
        self.monitor = FakeMonitor()
        self.repair_now_calls = 0
        self.evacuated = []
        self.probed = []

    def repair_now(self):
        self.repair_now_calls += 1
        return True

    def evacuate_holder(self, name):
        self.evacuated.append(name)
        return 2

    def probe_friend(self, name):
        self.probed.append(name)


class TestNocdnRerank:
    def test_quarantines_worst_failing_peers(self):
        sim, ctl = make_controller()
        loader, provider = FakeLoader(), FakeProvider(sim)
        ctl.add_rule(nocdn_rerank_rule(provider, loader, quarantine_s=15.0,
                                       top_n=2))
        loader.peer_failure_counts = {"pA": 4, "pB": 1, "pC": 2}
        produced = ctl.signal("alert", "nocdn-x", service="nocdn")
        executed = [d for d in produced if d["outcome"] == "executed"]
        assert [d["target"] for d in executed] == ["pA", "pC"]
        assert [(p, d) for p, d in provider.quarantined] == [
            ("pA", 15.0), ("pC", 15.0)]
        assert executed[0]["failures"] == 4
        assert ctl.metrics.counters["messages_sent"].value == 2

    def test_only_new_failures_count(self):
        sim, ctl = make_controller()
        loader, provider = FakeLoader(), FakeProvider(sim)
        ctl.add_rule(nocdn_rerank_rule(provider, loader, cooldown=0.0))
        loader.peer_failure_counts = {"pA": 4}
        ctl.signal("alert", "nocdn-x", service="nocdn")
        # No new failures since: the second alert proposes nothing.
        produced = ctl.signal("alert", "nocdn-x", service="nocdn")
        assert all(d["outcome"] != "executed" or d["action"] != "nocdn.quarantine"
                   for d in produced)
        assert len(provider.quarantined) == 1
        # Fresh failures re-arm it.
        loader.peer_failure_counts = {"pA": 4, "pB": 2}
        produced = ctl.signal("alert", "nocdn-x", service="nocdn")
        assert [d["target"] for d in produced
                if d["outcome"] == "executed"] == ["pB"]

    def test_ignores_other_services(self):
        sim, ctl = make_controller()
        loader, provider = FakeLoader(), FakeProvider(sim)
        ctl.add_rule(nocdn_rerank_rule(provider, loader))
        loader.peer_failure_counts = {"pA": 4}
        ctl.signal("alert", "attic-x", service="attic")
        assert provider.quarantined == []


class TestAtticRules:
    def test_repair_now_on_alert_and_death(self):
        sim, ctl = make_controller()
        backup = FakeBackup()
        ctl.add_rule(attic_repair_rule(backup, cooldown=0.0))
        ctl.signal("alert", "attic-x", service="attic")
        ctl.signal("peer_dead", "h2")
        assert backup.repair_now_calls == 2
        ctl.signal("alert", "nocdn-x", service="nocdn")
        assert backup.repair_now_calls == 2  # wrong service: no-op

    def test_migrate_fires_below_availability_threshold(self):
        sim, ctl = make_controller()
        backup = FakeBackup()
        ctl.add_rule(attic_migrate_rule(backup, availability_threshold=0.75,
                                        window=10.0))
        # h2 down for 4 of the trailing 10 seconds -> availability 0.6.
        ctl.signal("peer_dead", "h2")
        sim.run_until(4.0)
        produced = ctl.signal("peer_alive", "h2")
        executed = [d for d in produced if d["outcome"] == "executed"]
        assert [d["target"] for d in executed] == ["h2"]
        assert executed[0]["files"] == 2
        assert backup.evacuated == ["h2"]

    def test_migrate_spares_mostly_available_peer(self):
        sim, ctl = make_controller()
        backup = FakeBackup()
        ctl.add_rule(attic_migrate_rule(backup, availability_threshold=0.75,
                                        window=100.0))
        sim.run_until(50.0)
        ctl.signal("peer_dead", "h2")
        sim.run_until(52.0)  # 2% downtime
        ctl.signal("peer_alive", "h2")
        assert backup.evacuated == []

    def test_migrate_ignores_strangers(self):
        sim, ctl = make_controller()
        backup = FakeBackup(friends=("h1",))
        ctl.add_rule(attic_migrate_rule(backup, window=1.0))
        ctl.signal("peer_dead", "h9")
        ctl.signal("peer_alive", "h9")
        assert backup.evacuated == []

    def test_probe_targets_implicated_friends_only(self):
        sim, ctl = make_controller()
        backup = FakeBackup(friends=("h1", "h2"))
        loader = FakeLoader()
        ctl.add_rule(attic_probe_rule(backup, loader))
        # h2 is a friend and failing; pX is failing but not a friend;
        # h1 is a friend but clean.
        loader.peer_failure_counts = {"h2": 3, "pX": 5}
        ctl.signal("alert", "nocdn-x", service="nocdn")
        assert backup.probed == ["h2"]

    def test_probe_skips_already_dead_friends(self):
        sim, ctl = make_controller()
        backup = FakeBackup(friends=("h2",))
        backup.monitor.alive["h2"] = False
        loader = FakeLoader()
        loader.peer_failure_counts = {"h2": 3}
        ctl.add_rule(attic_probe_rule(backup, loader))
        ctl.signal("alert", "nocdn-x", service="nocdn")
        assert backup.probed == []


class TestDcolRotate:
    class FakeTransfer:
        def __init__(self, label, done=False, handshake_done=True):
            self.label = label
            self.done = done
            self.handshake_done = handshake_done
            self.rotations = []

        def rotate_worst(self, candidates, mechanism="vpn"):
            self.rotations.append((tuple(candidates), mechanism))
            return {"withdrawn": "w-old", "engaged": "w-new"}

    class FakeManager:
        def candidate_waypoints(self):
            return ["w1", "w2"]

    def test_rotates_live_transfers_only(self):
        sim, ctl = make_controller()
        live = self.FakeTransfer("t-live")
        finished = self.FakeTransfer("t-done", done=True)
        pending = self.FakeTransfer("t-hs", handshake_done=False)
        transfers = [live, finished, pending]
        ctl.add_rule(dcol_rotate_rule(self.FakeManager(),
                                      lambda: transfers))
        produced = ctl.signal("alert", "dcol-x", service="dcol")
        executed = [d for d in produced if d["outcome"] == "executed"]
        assert [d["target"] for d in executed] == ["t-live"]
        assert executed[0]["withdrawn"] == "w-old"
        assert executed[0]["engaged"] == "w-new"
        assert live.rotations == [(("w1", "w2"), "vpn")]
        assert finished.rotations == []
        assert pending.rotations == []


class TestReregister:
    def test_republishes_record_and_invalidates_cache(self):
        sim, ctl = make_controller()
        zone = Zone("home")
        old = Address.parse("198.18.0.1")
        new = Address.parse("198.18.0.2")
        zone.add("h3.home", old, ttl=300.0)
        resolver = StubResolver(sim)
        resolver.add_zone(zone)
        assert resolver.resolve("h3.home") == old
        zone.remove("h3.home")  # the crash lost the registration
        ctl.add_rule(reregister_rule(zone, resolvers=[resolver], ttl=30.0))
        produced = ctl.signal("hpop_restart", "h3", fqdn="h3.home",
                              address=new)
        assert [d["outcome"] for d in produced] == ["executed"]
        assert produced[0]["fqdn"] == "h3.home"
        assert produced[0]["address"] == str(new)
        # The stale cached answer is gone; resolution sees the new address.
        assert resolver.resolve("h3.home") == new
        assert zone.resolve("h3.home").ttl == 30.0
        # zone add + one resolver invalidation
        assert ctl.metrics.counters["messages_sent"].value == 2

    def test_missing_attrs_proposes_nothing(self):
        sim, ctl = make_controller()
        zone = Zone("home")
        ctl.add_rule(reregister_rule(zone))
        produced = ctl.signal("hpop_restart", "h3")
        assert [d for d in produced if d["outcome"] == "executed"] == []
