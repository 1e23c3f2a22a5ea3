"""The client-side detour manager: transparent MPTCP detours (paper SIV-C).

Drives one transfer as an MPTCP connection whose subflows are the direct
path plus any number of waypoint detours:

- **TLS-first policy**: "our prototype requires the client to complete
  the TLS handshake with the server over the direct path before
  establishing any detours" — the manager enforces exactly that ordering.
- **Trial-and-error exploration**: add candidate waypoints, watch each
  subflow's measured goodput, keep the winners, withdraw the rest.
- **Misbehaviour handling**: a waypoint whose subflow shows outsized
  loss is withdrawn (the transfer recovers transparently) and reported
  to the collective for expulsion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.dcol.collective import DetourCollective, WaypointService
from repro.dcol.tunnels import Tunnel, TunnelError, TunnelFactory
from repro.metrics.counters import MetricsRegistry
from repro.net.network import Network, compose_paths
from repro.net.node import Host
from repro.transport.mptcp import MptcpConnection, MptcpSubflow

TLS_HANDSHAKE_RTTS = 2  # the TCP handshake (1 RTT) happens anyway; TLS adds 2


@dataclass
class DetourHandle:
    """One active detour: its tunnel and its subflow."""

    waypoint: WaypointService
    tunnel: Tunnel
    subflow: MptcpSubflow

    @property
    def goodput_bps(self) -> float:
        return self.subflow.measured_goodput_bps()

    @property
    def loss_events(self) -> int:
        return self.subflow.stats.loss_events


class DetourTransfer:
    """One MPTCP transfer with dynamic detours."""

    def __init__(
        self,
        manager: "DetourManager",
        server: Host,
        nbytes: int,
        direction: str,
        on_complete: Optional[Callable[["DetourTransfer"], None]],
        tls: bool,
        label: str,
        server_port: int = 443,
        proxy=None,
        watchdog_interval: Optional[float] = 1.0,
    ) -> None:
        if direction not in ("up", "down"):
            raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
        self.manager = manager
        self.server = server
        self.server_port = server_port
        self.direction = direction
        # MPTCP-proxy deployment (SIV-C): subflows terminate at a proxy
        # near a non-MPTCP server; every path gains the proxy->server leg.
        self.proxy = proxy
        self.label = label
        self.detours: List[DetourHandle] = []
        self._span = manager.sim.tracer.start_span(
            "dcol.transfer", label=label, bytes=nbytes,
            direction=direction, tls=tls)
        self._started_at = manager.sim.now

        def complete(conn) -> None:
            manager._transfer_time.observe(manager.sim.now - self._started_at)
            self._span.finish(detours=len(self.detours))
            if on_complete is not None:
                on_complete(self)

        self.connection = MptcpConnection(
            manager.sim, nbytes, on_complete=complete, label=label)
        self.direct_subflow: Optional[MptcpSubflow] = None
        self._handshake_done = False
        self._pending_detours: List[Callable[[], None]] = []
        self.tls = tls
        self.watchdog_interval = watchdog_interval
        self._start_handshake()

    # -- setup ------------------------------------------------------------

    @property
    def sim(self):
        return self.manager.sim

    def _data_path(self, via: Optional[Host] = None):
        """The path data travels, honoring direction and proxy mode."""
        network = self.manager.network
        client = self.manager.client
        # With a proxy, the client-side endpoint is the proxy host and the
        # proxy->server leg is appended (prepended for downloads).
        endpoint = self.proxy.host if self.proxy is not None else self.server
        if self.direction == "up":
            if via is None:
                client_side = network.path_between(client, endpoint)
            else:
                client_side = compose_paths(
                    network.path_between(client, via),
                    network.path_between(via, endpoint))
            if self.proxy is not None:
                return self.proxy.extend(client_side, self.server, "up")
            return client_side
        if via is None:
            client_side = network.path_between(endpoint, client)
        else:
            client_side = compose_paths(network.path_between(endpoint, via),
                                        network.path_between(via, client))
        if self.proxy is not None:
            return self.proxy.extend(client_side, self.server, "down")
        return client_side

    def _start_handshake(self) -> None:
        direct = self._data_path()  # includes the proxy leg if any
        rtts = 1 + (TLS_HANDSHAKE_RTTS if self.tls else 0)
        hs_span = self.sim.tracer.start_span(
            "dcol.handshake", parent=self._span, rtts=rtts, tls=self.tls)

        def established() -> None:
            hs_span.finish()
            self._handshake_done = True
            self.direct_subflow = self.connection.add_subflow(
                self._data_path(), label=f"{self.label}.direct")
            pending, self._pending_detours = self._pending_detours, []
            for action in pending:
                action()
            if self.watchdog_interval:
                self._schedule_watchdog()

        with self.sim.tracer.activate(hs_span):
            self.sim.schedule(rtts * direct.rtt, established,
                              label=f"{self.label}.handshake")

    @property
    def handshake_done(self) -> bool:
        return self._handshake_done

    @property
    def done(self) -> bool:
        return self.connection.done

    # -- detour control ----------------------------------------------------------

    def add_detour(
        self,
        waypoint: WaypointService,
        mechanism: str = "vpn",
        on_ready: Optional[Callable[[DetourHandle], None]] = None,
        on_error: Optional[Callable[[TunnelError], None]] = None,
        ack_delay: float = 0.0,
    ) -> None:
        """Engage ``waypoint``; queued until the direct TLS handshake
        completes (the security policy)."""

        def engage() -> None:
            if self.connection.done:
                return

            def tunnel_ready(tunnel: Tunnel) -> None:
                if self.connection.done:
                    return
                detour_path = self._data_path(via=waypoint.host)
                self.manager._detour_rtt.observe(detour_path.rtt)
                subflow = self.connection.add_subflow(
                    detour_path,
                    label=f"{self.label}.via-{waypoint.host.name}",
                    overhead_per_packet=tunnel.overhead_per_packet,
                    extra_ack_delay=ack_delay)
                handle = DetourHandle(waypoint=waypoint, tunnel=tunnel,
                                      subflow=subflow)
                self.detours.append(handle)
                if on_ready is not None:
                    on_ready(handle)

            factory = self.manager.factory
            if mechanism == "vpn":
                if waypoint.vpn is None:
                    raise TunnelError(
                        f"{waypoint.host.name} has no VPN subnet (not a member?)")
                factory.open_vpn(waypoint.vpn, self.manager.client,
                                 tunnel_ready, on_error)
            elif mechanism == "nat":
                # In proxy mode the waypoint forwards to the proxy, not
                # the (MPTCP-unaware) server.
                target = (self.proxy.host if self.proxy is not None
                          else self.server)
                factory.open_nat(waypoint.nat, self.manager.client,
                                 target.address, self.server_port,
                                 tunnel_ready, on_error)
            else:
                raise ValueError(f"unknown mechanism {mechanism!r}")

        if self._handshake_done:
            engage()
        else:
            self._pending_detours.append(engage)

    # -- liveness watchdog -------------------------------------------------------

    def _schedule_watchdog(self) -> None:
        if self.connection.done:
            return
        self.sim.schedule(self.watchdog_interval, self._watchdog_tick,
                          label=f"{self.label}.watchdog", weak=True)

    def _watchdog_tick(self) -> None:
        """Fail over dead detours so the transfer survives waypoint churn.

        A crashed waypoint's host stops forwarding but its access links
        stay up, so MPTCP's path-level detection never fires — liveness
        has to be checked at the service level. Dead detours are
        withdrawn; if that (or an earlier path failure) left the
        connection stalled, a fresh direct subflow revives it.
        """
        if self.connection.done:
            return
        for handle in list(self.detours):
            if handle.subflow.removed:
                # Path-level failure already removed the subflow; just
                # drop our bookkeeping for it.
                self.detours.remove(handle)
                continue
            if not handle.waypoint.available:
                self.withdraw_detour(handle)
                self.manager._c_waypoint_failovers.inc()
                self.sim.tracer.start_span(
                    "dcol.waypoint_failover", parent=self._span,
                    waypoint=handle.waypoint.host.name).finish()
        if self.connection.stalled:
            try:
                self.direct_subflow = self.connection.add_subflow(
                    self._data_path(), label=f"{self.label}.direct-revive")
                self.manager._c_direct_failovers.inc()
                self.sim.tracer.start_span(
                    "dcol.direct_failover", parent=self._span).finish()
            except Exception:
                pass  # still partitioned; try again next tick
        self._schedule_watchdog()

    def withdraw_detour(self, handle: DetourHandle) -> None:
        """Close a detour subflow; in-flight data recovers transparently."""
        if handle not in self.detours:
            raise ValueError("not a detour of this transfer")
        self.connection.remove_subflow(handle.subflow)
        self.detours.remove(handle)

    def throttle_detour(self, handle: DetourHandle, ack_delay: float) -> None:
        """Steer the server away from a detour via delayed subflow ACKs."""
        handle.subflow.set_ack_delay(ack_delay)

    def active_detours(self) -> List[DetourHandle]:
        return list(self.detours)

    # -- exploration ---------------------------------------------------------------

    def explore(
        self,
        candidates: List[WaypointService],
        probe_time: float,
        keep: int = 1,
        mechanism: str = "vpn",
        on_done: Optional[Callable[[List[DetourHandle]], None]] = None,
    ) -> None:
        """Trial-and-error: engage all candidates, keep the ``keep`` best.

        After ``probe_time`` of concurrent probing, detours are ranked by
        measured goodput; the losers are withdrawn.
        """
        if keep < 0:
            raise ValueError("keep must be non-negative")
        for waypoint in candidates:
            self.add_detour(waypoint, mechanism=mechanism)

        def judge() -> None:
            if self.connection.done:
                if on_done is not None:
                    on_done(self.active_detours())
                return
            ranked = sorted(self.detours, key=lambda h: h.goodput_bps,
                            reverse=True)
            for loser in ranked[keep:]:
                self.withdraw_detour(loser)
            if on_done is not None:
                on_done(self.active_detours())

        self.sim.schedule(probe_time, judge, label=f"{self.label}.explore",
                          weak=True)

    def rotate_worst(self, candidates: List[WaypointService],
                     mechanism: str = "vpn") -> Dict[str, Optional[str]]:
        """Swap the slowest active detour for the best unused candidate.

        The control plane's RTT-regression remediation: withdraw the
        detour with the lowest measured goodput (only if there is more
        than one, or it is demonstrably idle) and engage the first
        candidate waypoint not already in use. Either half may be a
        no-op — rotating with no candidates just sheds the worst
        detour; rotating with no detours just engages a fresh one.
        Returns ``{"withdrawn": name | None, "engaged": name | None}``.
        """
        withdrawn: Optional[str] = None
        in_use = {h.waypoint.host.name for h in self.detours}
        if self.detours:
            worst = min(self.detours, key=lambda h: h.goodput_bps)
            self.withdraw_detour(worst)
            withdrawn = worst.waypoint.host.name
        engaged: Optional[str] = None
        for waypoint in candidates:
            name = waypoint.host.name
            if name in in_use or name == withdrawn:
                continue
            self.add_detour(waypoint, mechanism=mechanism)
            engaged = name
            break
        return {"withdrawn": withdrawn, "engaged": engaged}

    def police_waypoints(self, min_share_of_direct: float = 0.05,
                         loss_event_threshold: int = 5) -> List[DetourHandle]:
        """Withdraw and report detours that look malicious/broken.

        A detour is suspect when it accumulates many loss events or
        delivers almost nothing relative to the direct subflow.
        """
        expelled = []
        direct_goodput = (self.direct_subflow.measured_goodput_bps()
                          if self.direct_subflow else 0.0)
        for handle in list(self.detours):
            suspicious = handle.loss_events >= loss_event_threshold
            if direct_goodput > 0 and (handle.goodput_bps
                                       < min_share_of_direct * direct_goodput):
                suspicious = True
            if suspicious:
                self.withdraw_detour(handle)
                self.manager.collective.report_misbehavior(
                    handle.waypoint.host.name)
                expelled.append(handle)
        return expelled


class DetourManager:
    """Per-client entry point for DCol."""

    def __init__(self, client: Host, network: Network,
                 collective: DetourCollective,
                 factory: Optional[TunnelFactory] = None) -> None:
        self.client = client
        self.network = network
        self.collective = collective
        self.factory = factory or TunnelFactory(network)
        self.metrics = MetricsRegistry(namespace="dcol")
        self._detour_rtt = self.metrics.histogram(
            "detour_rtt_seconds", help="RTT of engaged detour paths")
        self._transfer_time = self.metrics.histogram(
            "transfer_seconds", help="Handshake-to-completion transfer time")
        self._c_waypoint_failovers = self.metrics.counter(
            "waypoint_failovers",
            help="Detours withdrawn because their waypoint died")
        self._c_direct_failovers = self.metrics.counter(
            "direct_failovers",
            help="Stalled transfers revived with a fresh direct subflow")

    @property
    def sim(self):
        return self.network.sim

    def start_transfer(
        self,
        server: Host,
        nbytes: int,
        on_complete: Optional[Callable[[DetourTransfer], None]] = None,
        direction: str = "down",
        tls: bool = True,
        label: Optional[str] = None,
        server_port: int = 443,
        proxy=None,
        watchdog_interval: Optional[float] = 1.0,
    ) -> DetourTransfer:
        """Begin an MPTCP transfer; detours can be added once the direct
        handshake completes.

        Pass an :class:`~repro.dcol.proxy.MptcpProxy` as ``proxy`` when
        the server does not speak MPTCP (the SIV-C proxy deployment).
        ``watchdog_interval`` paces the waypoint-liveness watchdog that
        fails a dead detour over to a direct subflow; pass ``None`` to
        disable it.
        """
        return DetourTransfer(
            self, server, nbytes, direction, on_complete, tls,
            label or f"dcol:{self.client.name}->{server.name}",
            server_port=server_port, proxy=proxy,
            watchdog_interval=watchdog_interval)

    def candidate_waypoints(self) -> List[WaypointService]:
        return self.collective.available_waypoints(exclude=self.client)
