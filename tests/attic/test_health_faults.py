"""Degradation paths for the health-records driver.

The duplicating storage driver must never lose clinical data: when the
patient's attic is unreachable (partitioned link or crashed HPoP) the
local regulatory copy is still written, the failure is counted, and
pushes resume once the attic comes back.
"""

import math

import pytest

from repro.faults import FaultInjector, FaultPlan, LinkFlap, NodeCrash
from repro.webdav.resources import NotFoundError

from tests.attic.test_health import build, onboard

HPOP_LINK = "hpop-n0h0"  # the patient home's access link in build()
HPOP_NODE = "nbhd0-home0-hpop"


def build_with_injector():
    sim, city, hpop, attic, clinic, hospital = build()
    injector = FaultInjector(sim, city.network, hpops=[hpop])
    return sim, city, hpop, attic, clinic, hospital, injector


def push_record(sim, clinic, kind="lab", until=None):
    done = []
    clinic.new_record("ann", kind, 20_000,
                      on_done=lambda _rec, pushed: done.append(pushed))
    if until is None:
        sim.run()
    else:
        sim.run_until(until)
    assert len(done) == 1
    return done[0]


class TestPartitionedAttic:
    def test_push_fails_but_local_copy_survives(self):
        sim, _city, _hpop, attic, clinic, _hospital, injector = \
            build_with_injector()
        link, _grant = onboard(attic, clinic)
        injector.apply(FaultPlan([
            LinkFlap(HPOP_LINK, at=sim.now, duration=math.inf)]))
        sim.run_until(sim.now + 1.0)
        assert push_record(sim, clinic, until=sim.now + 60.0) is False
        assert link.push_failures == 1
        assert link.records_pushed == 0
        # The regulatory local copy is intact; the attic never saw it.
        assert clinic.local_record_count("ann") == 1
        with pytest.raises(NotFoundError):
            attic.dav.tree.lookup("/ann/health/records")

    def test_pushes_resume_after_flap_heals(self):
        sim, _city, _hpop, attic, clinic, _hospital, injector = \
            build_with_injector()
        link, _grant = onboard(attic, clinic)
        injector.apply(FaultPlan([
            LinkFlap(HPOP_LINK, at=sim.now + 1.0, duration=5.0)]))
        sim.run_until(sim.now + 2.0)  # inside the outage window
        assert push_record(sim, clinic, "xray", until=sim.now + 60.0) is False
        sim.run_until(sim.now + 60.0)  # well past restoration
        assert push_record(sim, clinic, "lab") is True
        assert link.push_failures == 1
        assert link.records_pushed == 1
        # Both records kept locally; only the post-outage one made it out.
        assert clinic.local_record_count("ann") == 2
        listing = attic.dav.tree.list_children("/ann/health/records")
        assert len(listing) == 1

    def test_history_fetch_fails_loudly_during_outage(self):
        sim, _city, _hpop, attic, clinic, _hospital, injector = \
            build_with_injector()
        onboard(attic, clinic)
        assert push_record(sim, clinic) is True
        injector.apply(FaultPlan([
            LinkFlap(HPOP_LINK, at=sim.now, duration=math.inf)]))
        sim.run_until(sim.now + 1.0)
        history, errors = [], []
        clinic.fetch_history("ann", history.append, errors.append)
        sim.run_until(sim.now + 60.0)
        assert history == []
        assert len(errors) == 1

    def test_history_fetch_answers_once_when_record_gets_fail(self):
        """The link goes down after the listing answered: every record
        GET fails, and the caller hears one error and no history."""
        sim, city, _hpop, attic, clinic, _hospital, _injector = \
            build_with_injector()
        onboard(attic, clinic)
        for kind in ("lab", "xray", "visit"):
            assert push_record(sim, clinic, kind) is True
        real = clinic.client.request

        def cut_after_listing(server, request, on_response, **kwargs):
            def listed(resp, stats):
                city.network.fail_link(city.network.links[HPOP_LINK])
                on_response(resp, stats)

            if request.method == "PROPFIND":
                return real(server, request, listed, **kwargs)
            return real(server, request, on_response, **kwargs)

        clinic.client.request = cut_after_listing
        history, errors = [], []
        clinic.fetch_history("ann", history.append, errors.append)
        sim.run_until(sim.now + 60.0)
        assert history == []
        assert len(errors) == 1


class TestCrashedAttic:
    def test_records_survive_an_hpop_crash(self):
        sim, _city, _hpop, attic, clinic, hospital, injector = \
            build_with_injector()
        onboard(attic, clinic)
        assert push_record(sim, clinic, "visit") is True
        injector.apply(FaultPlan([
            NodeCrash(HPOP_NODE, at=sim.now + 1.0, downtime=5.0)]))
        sim.run_until(sim.now + 2.0)  # node is down
        assert push_record(sim, clinic, "lab", until=sim.now + 60.0) is False
        sim.run_until(sim.now + 60.0)  # node restarted
        # The attic tree is durable storage: the pre-crash record is
        # still there for a brand-new provider to pull.
        onboard(attic, hospital)
        history = []
        hospital.fetch_history("ann", history.append)
        sim.run()
        assert [r.kind for r in history[0]] == ["visit"]
        assert injector.metrics.counters["node_restarts"].value == 1
