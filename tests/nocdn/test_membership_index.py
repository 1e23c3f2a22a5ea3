"""The origin's membership index: one cached usable-peer view.

``ContentProvider.usable_peers`` caches the ``_usable`` scan and every
consumer reads it, so the contract is exactness: after any interleaving
of membership writes, quarantine expiries and power events the view is
what a fresh scan would produce, and a provider reading the cached view
issues the wrappers a provider that rescans before every call issues.
The count-based guard at the bottom keeps a per-wrapper fleet scan from
coming back unnoticed.
"""

import builtins
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.hpop.core import Household, Hpop, User
from repro.http.messages import HttpRequest
from repro.nocdn import origin, selection, strategy
from repro.nocdn.origin import PeerInfo
from repro.nocdn.peer import NoCdnPeerService

from tests.nocdn.harness import NoCdnWorld, make_catalog

SIGNED_UP, LATE = 4, 2
PEERS = SIGNED_UP + LATE
KINDS = ["naive", "sharded", "replicate-hot", "random"]


def build_world(kind):
    """Four signed-up peers, two started but held back for late sign-up.

    ``kind`` names a collaborative strategy, or ``random`` for the
    classic provider (``RandomSelection``, no strategy, no directory).
    Three penalties expel (0.3 ** 3 < 0.05), so drawn sequences reach it.
    """
    world = NoCdnWorld(
        num_peers=SIGNED_UP, homes=PEERS + 2,
        catalog=make_catalog(num_pages=2, objects_per_page=3),
        strategy=None if kind == "random" else kind,
        max_fallbacks=2, trust_penalty=0.3)
    for i in range(SIGNED_UP, PEERS):
        home = world.city.neighborhoods[0].homes[i + 1]
        hpop = Hpop(home.hpop_host, world.city.network,
                    Household(name=f"h{i}", users=[User(f"u{i}", "pw")]))
        world.peers.append(hpop.install(NoCdnPeerService()))
        world.hpops.append(hpop)
        hpop.start()
    return world


def reference_scan(provider):
    return [p for p in provider.peers.values() if provider._usable(p)]


def apply_step(world, step):
    """Apply one drawn step; returns the wrapper for a ``wrapper`` step."""
    op, arg = step[0], step[1]
    provider, sim = world.provider, world.sim
    if op == "advance":
        pending = [p.quarantined_until for p in provider.peers.values()
                   if p.quarantined_until > sim.now]
        if not pending:
            target = sim.now + 1.0
        elif arg == "before":
            target = max(sim.now, math.nextafter(min(pending), 0.0))
        elif arg == "at":
            target = min(pending)
        else:
            target = min(pending) + 0.5
        sim.run_until(target)
        return None
    if op == "wrapper":
        return provider.build_wrapper(
            world.catalog.page(f"/page{arg}"), "client")
    service, hpop = world.peers[arg], world.hpops[arg]
    signed_up = service.peer_id in provider.peers
    if op == "sign_up":
        if not signed_up:
            service.sign_up(provider)
    elif op == "expel":
        provider.expel_peer(service.peer_id)
    elif op == "quarantine":
        if signed_up:
            provider.quarantine_peer(service.peer_id, step[2])
    elif op == "report":
        provider._accept_corruption_report(HttpRequest(
            "POST", provider.corruption_report_path,
            body={"peer_id": service.peer_id}))
    elif op == "power_off":
        hpop.host.power_off()
    elif op == "power_on":
        hpop.host.power_on()
    else:
        getattr(hpop, op)()  # crash / restart / shutdown
    return None


peer = st.integers(0, PEERS - 1)
steps = st.lists(st.one_of(
    st.tuples(st.sampled_from(["sign_up", "expel", "report", "crash",
                               "restart", "shutdown", "power_off",
                               "power_on"]), peer),
    st.tuples(st.just("quarantine"), peer,
              st.sampled_from([0.0, 2.0, 5.0, 9.0])),
    st.tuples(st.just("advance"),
              st.sampled_from(["before", "at", "after"])),
    st.tuples(st.just("wrapper"), st.integers(0, 1)),
), min_size=1, max_size=30)


class TestViewEqualsScan:
    @pytest.mark.parametrize("kind", KINDS)
    @given(step_list=steps)
    # Re-quarantine that extends, then one that would shorten; expiry
    # approached from just before, exactly at (usable) and after.
    @example(step_list=[("wrapper", 0), ("quarantine", 1, 5.0),
                        ("quarantine", 1, 9.0), ("quarantine", 1, 2.0),
                        ("wrapper", 0), ("advance", "before"),
                        ("wrapper", 0), ("advance", "at"), ("wrapper", 0),
                        ("advance", "after"), ("wrapper", 1)])
    # A bare host power cut, as test_dead_peer_invalidates_cached_wrapper
    # does it: no provider method sees it happen.
    @example(step_list=[("wrapper", 0), ("power_off", 0), ("wrapper", 0),
                        ("power_on", 0), ("wrapper", 0), ("crash", 2),
                        ("wrapper", 1), ("restart", 2), ("wrapper", 1)])
    # Penalties reorder the fallback ranking, then expel.
    @example(step_list=[("wrapper", 0), ("report", 3), ("wrapper", 0),
                        ("report", 3), ("report", 3), ("wrapper", 0),
                        ("sign_up", 5), ("wrapper", 0)])
    @settings(max_examples=40, deadline=None)
    def test_view_tracks_every_interleaving(self, kind, step_list):
        cached, rescanning = build_world(kind), build_world(kind)
        for step in step_list:
            issued = apply_step(cached, step)
            # The twin never reads a view older than its latest call.
            rescanning.provider._usable_view = None
            expected = apply_step(rescanning, step)
            view = cached.provider.alive_peers()
            scan = reference_scan(cached.provider)
            assert len(view) == len(scan)
            assert all(a is b for a, b in zip(view, scan))
            assert (issued is None) == (expected is None)
            if issued is not None:
                assert issued.assignments == expected.assignments
                assert issued.fallbacks == expected.fallbacks
                assert issued.peer_keys == expected.peer_keys

    def test_alive_peers_is_a_fresh_list(self):
        world = build_world("sharded")
        first = world.provider.alive_peers()
        first.clear()  # a caller's copy: mutating it must not leak
        assert len(world.provider.alive_peers()) == SIGNED_UP
        assert type(world.provider.alive_peers()) is list

    def test_quarantine_that_would_shorten_keeps_the_view(self):
        world = build_world("sharded")
        victim = world.peers[0].peer_id
        world.provider.quarantine_peer(victim, 9.0)
        view = world.provider.usable_peers()
        assert world.provider.quarantine_peer(victim, 2.0) == 9.0
        assert world.provider.usable_peers() is view


class TestNoPerWrapperScan:
    """Counts, not timings: what a wrapper may cost at 2,000 peers."""

    FLEET, WRAPPERS, MAX_FALLBACKS = 2000, 50, 3

    def build(self):
        world = NoCdnWorld(
            num_peers=self.FLEET, homes=self.FLEET + 1, strategy="sharded",
            catalog=make_catalog(num_pages=1, objects_per_page=4),
            max_fallbacks=self.MAX_FALLBACKS)
        return world.provider, world.catalog.page("/page0")

    def test_wrapper_cost_is_flat_in_fleet_size(self, monkeypatch):
        provider, page = self.build()
        assert len(provider.peers) == self.FLEET
        counts = {"alive": 0, "fleet_sorts": 0}
        real_alive = PeerInfo.alive.fget

        def counting_alive(info):
            counts["alive"] += 1
            return real_alive(info)

        def counting_sorted(iterable, **kwargs):
            items = list(iterable)
            if len(items) >= self.FLEET // 2:
                counts["fleet_sorts"] += 1
            return builtins.sorted(items, **kwargs)

        monkeypatch.setattr(PeerInfo, "alive", property(counting_alive))
        for module in (origin, selection, strategy):
            monkeypatch.setattr(module, "sorted", counting_sorted,
                                raising=False)

        per_wrapper = len(list(page.all_objects())) + self.MAX_FALLBACKS
        budget = self.FLEET + self.WRAPPERS * per_wrapper
        for _ in range(self.WRAPPERS):
            assert provider.build_wrapper(page, "client") is not None
        assert counts["alive"] <= budget
        # The sorted ids, the trust ranking and the ring's bulk build.
        assert counts["fleet_sorts"] <= 3

        victim = next(iter(provider.peers))
        provider.quarantine_peer(victim, 30.0)
        for _ in range(self.WRAPPERS):
            wrapper = provider.build_wrapper(page, "client")
            assert victim not in wrapper.peer_keys
        # One membership change: at most one more scan.
        assert counts["alive"] <= 2 * budget
