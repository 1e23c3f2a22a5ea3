"""STUN/TURN traversal services and the HPoP reachability manager.

Paper SIII prescribes the exact ladder we implement:

1. single home NAT + UPnP -> programmatic port forwarding,
2. otherwise STUN-style hole punching (works for compatible NAT types),
3. otherwise TURN relaying, "with limited functionality" — the relay
   inflates RTT and caps throughput, quantified by experiment E13.

The services run as real simulated hosts: STUN binding requests and TURN
allocations cost actual round trips over the routed topology.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.nat.devices import Endpoint, NatChain, NatType, hole_punch_succeeds
from repro.net.address import Address
from repro.net.network import Network, NetworkError, Path, compose_paths
from repro.net.node import Host
from repro.sim.engine import Simulator

STUN_PORT = 3478
TURN_PORT = 3479


class StunServer:
    """Answers binding requests with the client's server-reflexive endpoint."""

    def __init__(self, network: Network, host: Host) -> None:
        self.network = network
        self.host = host
        self.requests_served = 0
        host.bind_datagram(STUN_PORT, self._on_request)

    def _on_request(self, source: Address, source_port: int, payload: object) -> None:
        if not isinstance(payload, dict) or payload.get("type") != "binding":
            return
        self.requests_served += 1
        reply = {
            "type": "binding-response",
            "mapped": (source, source_port),
            "txid": payload.get("txid"),
        }
        self.network.send_datagram(self.host, STUN_PORT, source, source_port,
                                   reply, size=96)


@dataclass
class TurnAllocation:
    """A relay lease on a TURN server."""

    client: Host
    relay_port: int


class TurnServer:
    """Allocates relay endpoints and represents the relayed data plane.

    Data relayed through TURN traverses client->relay->peer, so services
    using a relayed endpoint should build their transport path with
    :meth:`relayed_path`.
    """

    def __init__(self, network: Network, host: Host,
                 first_relay_port: int = 49152) -> None:
        self.network = network
        self.host = host
        self._next_port = first_relay_port
        self.allocations: Dict[int, TurnAllocation] = {}

    def allocate(self, client: Host) -> TurnAllocation:
        port = self._next_port
        self._next_port += 1
        allocation = TurnAllocation(client=client, relay_port=port)
        self.allocations[port] = allocation
        return allocation

    def release(self, allocation: TurnAllocation) -> None:
        self.allocations.pop(allocation.relay_port, None)

    def relayed_path(self, peer: Host, client: Host) -> Path:
        """The effective data path peer -> relay -> client."""
        to_relay = self.network.path_between(peer, self.host)
        to_client = self.network.path_between(self.host, client)
        return compose_paths(to_relay, to_client)


class ReachabilityMethod(enum.Enum):
    PUBLIC = "public"            # no NAT at all
    UPNP = "upnp"                # port forward on the single home NAT
    HOLE_PUNCH = "hole_punch"    # STUN-established mapping
    RELAY = "relay"              # TURN fallback
    UNREACHABLE = "unreachable"  # nothing worked (no TURN server)


@dataclass
class ReachabilityReport:
    """Outcome of making one host reachable."""

    host: Host
    method: ReachabilityMethod
    public_endpoint: Optional[Endpoint]
    relay: Optional[TurnServer] = None
    setup_time: float = 0.0

    @property
    def reachable(self) -> bool:
        return self.method is not ReachabilityMethod.UNREACHABLE


class ReachabilityManager:
    """Implements the paper's traversal ladder for HPoPs.

    The manager knows each host's :class:`NatChain` (topology builders or
    tests register them) and owns references to the deployed STUN/TURN
    infrastructure.
    """

    def __init__(
        self,
        network: Network,
        stun: Optional[StunServer] = None,
        turn: Optional[TurnServer] = None,
    ) -> None:
        self.network = network
        self.stun = stun
        self.turn = turn
        self._chains: Dict[str, NatChain] = {}
        self._reports: Dict[str, ReachabilityReport] = {}

    @property
    def sim(self) -> Simulator:
        return self.network.sim

    def register_chain(self, host: Host, chain: NatChain) -> None:
        self._chains[host.name] = chain

    def chain_for(self, host: Host) -> NatChain:
        return self._chains.get(host.name, NatChain())

    # -- the ladder -----------------------------------------------------------

    def establish(self, host: Host, service_port: int,
                  on_ready: Callable[[ReachabilityReport], None]) -> None:
        """Make ``host``'s ``service_port`` reachable; async, reports back.

        Setup cost model: UPnP is a LAN exchange (negligible); STUN costs
        one round trip to the STUN server (plus punching exchange); TURN
        costs two round trips (allocation + permission).
        """
        chain = self.chain_for(host)
        start = self.sim.now

        def finish(method: ReachabilityMethod,
                   endpoint: Optional[Endpoint],
                   relay: Optional[TurnServer] = None) -> None:
            report = ReachabilityReport(
                host=host, method=method, public_endpoint=endpoint,
                relay=relay, setup_time=self.sim.now - start)
            self._reports[host.name] = report
            on_ready(report)

        if chain.is_public:
            self.sim.call_soon(
                lambda: finish(ReachabilityMethod.PUBLIC,
                               (host.address, service_port)),
                label="reach.public")
            return

        if chain.upnp_available():
            nat = chain.home_nat
            public_port = nat.upnp_add_port_mapping((host.address, service_port))
            self.sim.call_soon(
                lambda: finish(ReachabilityMethod.UPNP,
                               (nat.public_address, public_port)),
                label="reach.upnp")
            return

        if self.stun is not None:
            stun_rtt = self.network.path_between(
                host, self.stun.host).rtt
            effective = chain.effective_type()

            def after_stun() -> None:
                # Whether punching works depends on the *peer's* NAT too;
                # the report records the server-reflexive endpoint and
                # can_connect_from() applies the pair matrix. A chain
                # whose own type is symmetric yields unstable mappings,
                # so we only claim HOLE_PUNCH for cone types.
                if effective is not NatType.SYMMETRIC:
                    outer = chain.devices[-1]
                    public = outer.map_outbound(
                        (host.address, service_port),
                        (self.stun.host.address, STUN_PORT))
                    finish(ReachabilityMethod.HOLE_PUNCH, public)
                else:
                    self._fall_back_to_relay(host, finish)

            self.sim.schedule(stun_rtt, after_stun, label="reach.stun")
            return

        self._fall_back_to_relay(host, finish)

    def _fall_back_to_relay(self, host: Host, finish) -> None:
        if self.turn is None:
            self.sim.call_soon(
                lambda: finish(ReachabilityMethod.UNREACHABLE, None),
                label="reach.none")
            return
        turn_rtt = self.network.path_between(host, self.turn.host).rtt

        def after_allocate() -> None:
            allocation = self.turn.allocate(host)
            finish(ReachabilityMethod.RELAY,
                   (self.turn.host.address, allocation.relay_port),
                   relay=self.turn)

        self.sim.schedule(2 * turn_rtt, after_allocate, label="reach.turn")

    # -- connection-time checks -------------------------------------------------

    def can_connect_from(self, client: Host, target: Host) -> bool:
        """Can ``client`` reach ``target``'s established endpoint directly?

        UPnP/public endpoints accept anyone. Hole-punched endpoints
        require the client's own NAT chain to be punch-compatible with
        the target's. Relayed endpoints accept anyone (via the relay).
        """
        report = self._reports.get(target.name)
        if report is None or not report.reachable:
            return False
        if report.method in (ReachabilityMethod.PUBLIC, ReachabilityMethod.UPNP,
                             ReachabilityMethod.RELAY):
            return True
        client_type = self.chain_for(client).effective_type()
        target_type = self.chain_for(target).effective_type()
        return hole_punch_succeeds(client_type, target_type)

    def data_path(self, client: Host, target: Host) -> Path:
        """The effective data path from ``client`` to ``target``, honoring
        relaying. Raises :class:`NetworkError` if unreachable."""
        report = self._reports.get(target.name)
        if report is None or not report.reachable:
            raise NetworkError(f"{target.name} has no reachable endpoint")
        if report.method is ReachabilityMethod.RELAY:
            assert report.relay is not None
            return report.relay.relayed_path(client, target)
        if not self.can_connect_from(client, target):
            raise NetworkError(
                f"{client.name} cannot traverse to {target.name} "
                f"(incompatible NATs, no relay)")
        return self.network.path_between(client, target)


def deploy_traversal_infrastructure(
    network: Network, attach_to: Host
) -> Tuple[StunServer, TurnServer]:
    """Convenience: run STUN and TURN services on an existing public host."""
    return StunServer(network, attach_to), TurnServer(network, attach_to)
