"""Finished exchanges die by reference count, never by the collector.

With ``gc.DEBUG_SAVEALL`` every object the cyclic collector frees is
kept in ``gc.garbage`` instead. Loads on a small NoCDN city (one with
a wedged peer, so timeouts and failover run) and one MPTCP detour
transfer must leave no transport or HTTP state there: a cycle through
a flow, an event, a request or response, or a closure of
``repro.transport`` / ``repro.http``, or an MPTCP connection and its
subflows would keep each exchange alive
until a full collection, which at fleet scale is a quarter of the run.
"""

import gc
import types
from collections import Counter

import pytest

from repro.dcol.collective import DetourCollective, WaypointService
from repro.dcol.manager import DetourManager
from repro.hpop.core import Household, Hpop, User
from repro.http.client import ExchangeStats
from repro.http.messages import HttpRequest, HttpResponse
from repro.nocdn.peer import NoCdnPeerService
from repro.net.topology import build_detour_testbed
from repro.sim.engine import Event, Simulator
from repro.transport.mptcp import MptcpConnection, MptcpSubflow
from repro.transport.tcp import TcpFlow
from repro.util.units import mib
from tests.faults.test_nocdn_failover import HungPeerService
from tests.faults.test_nocdn_failover import build as pinned_world
from tests.nocdn.harness import NoCdnWorld, make_catalog

EXCHANGE_TYPES = (TcpFlow, Event, HttpRequest, HttpResponse, ExchangeStats,
                  MptcpConnection, MptcpSubflow)
EXCHANGE_MODULES = ("repro.transport", "repro.http")


def exchange_state(objects):
    """Counts of the exchange objects among ``objects``, by name."""
    found = Counter()
    for obj in objects:
        if isinstance(obj, EXCHANGE_TYPES):
            found[type(obj).__name__] += 1
        elif (isinstance(obj, types.FunctionType)
              and obj.__module__.startswith(EXCHANGE_MODULES)):
            found[f"{obj.__module__}:{obj.__qualname__}"] += 1
    return found


@pytest.fixture
def saved_garbage():
    """``gc.garbage`` filling with everything collected from here on."""
    gc.collect()
    flags = gc.get_debug()
    start = len(gc.garbage)
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        yield lambda: (gc.collect(), gc.garbage[start:])[1]
    finally:
        gc.set_debug(flags)
        del gc.garbage[start:]


def detour_transfer():
    """One 4 MiB DCol download over the direct path and two detours.
    Returns the world, not the transfer: with no watchdog left pending,
    nothing of the finished transfer may outlive the call."""
    sim = Simulator(seed=15)
    bed = build_detour_testbed(sim, num_waypoints=2)
    collective = DetourCollective()
    services = []
    for wp in bed.waypoints:
        hpop = Hpop(wp, bed.network,
                    Household(name=wp.name, users=[User("u", "p")]))
        services.append(hpop.install(WaypointService()))
        hpop.start()
        collective.join(services[-1])
    manager = DetourManager(bed.client, bed.network, collective)
    done = []
    transfer = manager.start_transfer(bed.server, mib(4),
                                      on_complete=done.append,
                                      watchdog_interval=None)
    for service in services:
        transfer.add_detour(service)
    sim.run()
    assert done == [transfer] and transfer.connection.done
    return manager


def test_nocdn_loads_and_a_detour_transfer_leave_no_cycles(saved_garbage):
    world = NoCdnWorld(num_peers=3, seed=11, catalog=make_catalog(3))
    for url in ("/page0", "/page1", "/page0"):
        world.load_page(url)
    hung, loader = pinned_world(num_peers=3, peer_services=[
        HungPeerService(), NoCdnPeerService(), NoCdnPeerService()])
    failover = hung.load_page("/page0", loader)
    assert failover.peer_failures and not failover.corrupted
    detour_world = detour_transfer()
    assert exchange_state(saved_garbage()) == Counter()
    assert world and detour_world  # alive through the collection
