"""HTTP client endpoint: connection pooling, TLS, timeouts, relayed paths.

An :class:`HttpClient` is owned by a host. Each logical exchange is:
connect (pooled, with handshake + optional TLS round trips) -> upload the
request -> server dispatch -> download the response. Transfers ride the
flow-level TCP model, so page loads see slow start, sharing, and loss.

:func:`fan_in` waits for several answers; :class:`PageFetcher` is the
page fetch every device-side page loader shares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.http.messages import HttpRequest, HttpResponse
from repro.http.server import DEFAULT_HTTP_PORT, HttpServer
from repro.metrics.counters import MetricsRegistry
from repro.net.address import Address
from repro.net.network import Network, NetworkError, Path
from repro.net.node import Host
from repro.sim.engine import Simulator
from repro.transport.tcp import TcpConnection

FULL_TLS_ROUND_TRIPS = 2  # TLS 1.2-style full handshake
DEFAULT_TIMEOUT = 30.0


class HttpError(RuntimeError):
    """Raised through the error callback: timeouts, unreachable servers."""


@dataclass
class ExchangeStats:
    """Timing of one request/response exchange."""

    started_at: float
    connected_at: Optional[float] = None
    completed_at: Optional[float] = None
    response_bytes: int = 0
    connection_reused: bool = False

    @property
    def total_time(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.started_at


ResponseCallback = Callable[[HttpResponse, ExchangeStats], None]
ErrorCallback = Callable[[HttpError], None]
# Where one request goes: (server, request, port).
Target = Tuple[Union[Host, Address], HttpRequest, int]


def fan_in(n: int, on_all: Callable[[List[tuple]], None]
           ) -> Callable[..., None]:
    """A callback for ``n`` operations: after its ``n``-th call (at once
    when ``n`` is 0) it calls ``on_all`` with every call's arguments."""
    results: List[tuple] = []

    def one(*result) -> None:
        results.append(result)
        if len(results) == n:
            on_all(results)

    if n == 0:
        on_all(results)
    return one


class HttpClient:
    """Connection-pooling HTTP client bound to one host."""

    def __init__(self, host: Host, network: Network,
                 timeout: float = DEFAULT_TIMEOUT) -> None:
        self.host = host
        self.network = network
        self.timeout = timeout
        # pool key: (server host name, port, tls, path fingerprint)
        self._pool: Dict[Tuple, TcpConnection] = {}
        self.exchanges_completed = 0
        self.exchanges_failed = 0
        # Born on first use: most clients of a fleet never finish an
        # exchange, and an idle home should allocate nothing.
        self._metrics: Optional[MetricsRegistry] = None

    @property
    def metrics(self) -> MetricsRegistry:
        """The ``http`` registry; an exporter that reaches it before any
        exchange ends sees zeroed counters and an empty histogram."""
        if self._metrics is None:
            self._register_metrics()
        return self._metrics

    def _register_metrics(self) -> None:
        self._metrics = registry = MetricsRegistry(namespace="http")
        self._request_latency = registry.histogram(
            "request_latency_seconds",
            help="Start-to-response time of completed exchanges")
        self._requests_ok = registry.counter(
            "requests_ok", help="Exchanges that produced a response")
        self._requests_failed = registry.counter(
            "requests_failed", help="Exchanges that timed out or errored")

    @property
    def sim(self) -> Simulator:
        return self.network.sim

    # -- public API ----------------------------------------------------------

    def request(
        self,
        server: Union[Host, Address],
        request: HttpRequest,
        on_response: ResponseCallback,
        port: int = DEFAULT_HTTP_PORT,
        tls: bool = False,
        via_path: Optional[Path] = None,
        on_error: Optional[ErrorCallback] = None,
        timeout: Optional[float] = None,
    ) -> None:
        """Issue ``request``; exactly one of the callbacks fires.

        ``via_path`` overrides the forward (client->server) path — used
        for TURN-relayed attic access. The reverse path is the routed
        reverse between the endpoints, unless the forward was
        overridden: responses then travel the mirror of ``via_path``
        (the same links in the opposite direction and order).
        """
        stats = ExchangeStats(started_at=self.sim.now)
        deadline = timeout if timeout is not None else self.timeout
        finished = {"done": False}
        span = self.sim.tracer.start_span(
            "http.request", method=request.method, path=request.path)

        def fail(message: str) -> None:
            if finished["done"]:
                return
            finished["done"] = True
            self.exchanges_failed += 1
            if self._metrics is None:
                self._register_metrics()
            self._requests_failed.inc()
            span.finish(error=message)
            if on_error is not None:
                on_error(HttpError(message))

        try:
            server_host = (server if isinstance(server, Host)
                           else self.network.node_for(server))
        except NetworkError as exc:
            message = str(exc)
            self.sim.call_soon(lambda: fail(message), label="http.noroute")
            return
        if not isinstance(server_host, Host):
            self.sim.call_soon(
                lambda: fail(f"{server_host.name} is not an end host"),
                label="http.badtarget")
            return

        listener = server_host.stream_listener(port)
        if not isinstance(listener, HttpServer):
            self.sim.call_soon(
                lambda: fail(f"no HTTP server on {server_host.name}:{port}"),
                label="http.refused")
            return

        timer = self.sim.schedule(
            deadline, lambda: fail(
                f"timeout after {deadline}s: {request.method} {request.path}"),
            label="http.timeout")

        try:
            conn = self._get_connection(server_host, port, tls, via_path)
        except NetworkError as exc:
            timer.cancel()
            message = str(exc)
            self.sim.call_soon(lambda: fail(message), label="http.noroute")
            return
        stats.connection_reused = conn.established

        def on_response_downloaded(response: HttpResponse) -> None:
            def done(_flow) -> None:
                if finished["done"]:
                    return
                finished["done"] = True
                timer.cancel()
                stats.completed_at = self.sim.now
                stats.response_bytes = response.body_size
                self.exchanges_completed += 1
                if self._metrics is None:
                    self._register_metrics()
                self._requests_ok.inc()
                self._request_latency.observe(stats.total_time)
                span.finish(status=response.status,
                            bytes=response.body_size,
                            reused=stats.connection_reused)
                on_response(response, stats)

            conn.transfer(max(1, response.wire_size), "down", done,
                          label=f"http.resp.{request.path}")

        def on_request_uploaded(_flow) -> None:
            request.host = request.host or server_host.name
            listener.handle(request, on_response_downloaded)

        def on_connected() -> None:
            stats.connected_at = self.sim.now
            conn.transfer(max(1, request.wire_size), "up", on_request_uploaded,
                          label=f"http.req.{request.path}")

        with self.sim.tracer.activate(span):
            conn.establish(on_connected)

    # -- pooling ---------------------------------------------------------------

    def _get_connection(self, server_host: Host, port: int, tls: bool,
                        via_path: Optional[Path]) -> TcpConnection:
        path_key = (tuple(d.name for d in via_path.directions)
                    if via_path is not None else None)
        key = (server_host.name, port, tls, path_key)
        conn = self._pool.get(key)
        if conn is not None:
            return conn
        forward = via_path if via_path is not None else \
            self.network.path_between(self.host, server_host)
        reverse = self.network.path_between(server_host, self.host) \
            if via_path is None else _reversed_path(via_path)
        conn = TcpConnection(
            self.sim, forward, reverse,
            label=f"http:{self.host.name}->{server_host.name}:{port}",
            tls_round_trips=FULL_TLS_ROUND_TRIPS if tls else 0,
        )
        self._pool[key] = conn
        return conn

    def close_all(self) -> None:
        """Drop pooled connections (e.g. after a server restart)."""
        for conn in self._pool.values():
            conn.close()
        self._pool.clear()


def _reversed_path(path: Path) -> Path:
    """The mirror of an explicit path (same links, opposite directions)."""
    directions = tuple(
        d.link.direction(d.receiver) for d in reversed(path.directions)
    )
    return Path(source=path.dest, dest=path.source, directions=directions)


class PageFetcher:
    """A device that loads pages: owns its :class:`HttpClient` and the
    page fetch the NoCDN, baseline and Internet@home loaders share."""

    def __init__(self, device: Host, network: Network) -> None:
        self.device = device
        self.network = network
        self.client = HttpClient(device, network)

    @property
    def sim(self) -> Simulator:
        return self.network.sim

    def _fetch_all(self, objects, target_for: Callable[[Any], Target],
                   account: Callable[[Any, Optional[HttpResponse]], None],
                   on_done: Callable[[], None]) -> None:
        """Request every one of ``objects`` from ``target_for(obj)`` at
        once; ``account(obj, response)`` books each object's answer
        (``response`` is None when its exchange failed), ``on_done()``
        runs after the last."""
        one = fan_in(len(objects), lambda _answers: on_done())

        def fetch(obj) -> None:
            def answered(resp: HttpResponse, _stats) -> None:
                account(obj, resp)
                one()

            def failed(_exc) -> None:
                account(obj, None)
                one()

            server, request, port = target_for(obj)
            self.client.request(server, request, answered, port=port,
                                on_error=failed)

        for obj in objects:
            fetch(obj)
