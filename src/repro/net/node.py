"""Nodes: hosts, routers, and the service-endpoint plumbing.

A :class:`Node` owns interfaces (address + attached link). A
:class:`Host` additionally exposes a port table so transport endpoints
(:mod:`repro.transport`) and datagram services can bind and receive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.net.address import Address

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Link
    from repro.net.network import Network


@dataclass(slots=True)
class Interface:
    """A network interface: an address bound to a link endpoint."""

    address: Address
    link: Optional["Link"] = None
    name: str = "eth0"


class Node:
    """Base class for anything attached to the network graph.

    Nodes are the most numerous objects in a fleet-scale topology, so the
    hierarchy is slotted: no per-instance ``__dict__`` at 100k+ homes.
    """

    __slots__ = ("name", "network", "interfaces", "_powered")

    def __init__(self, name: str, network: "Network") -> None:
        self.name = name
        self.network = network
        self.interfaces: List[Interface] = []
        self._powered = True

    @property
    def sim(self):
        return self.network.sim

    @property
    def address(self) -> Address:
        """The node's primary address (first interface)."""
        if not self.interfaces:
            raise RuntimeError(f"node {self.name} has no interface")
        return self.interfaces[0].address

    def add_interface(self, address: Address, link: Optional["Link"] = None,
                      name: Optional[str] = None) -> Interface:
        iface = Interface(address=address, link=link,
                          name=name or f"eth{len(self.interfaces)}")
        self.interfaces.append(iface)
        self.network.register_address(address, self)
        return iface

    @property
    def powered(self) -> bool:
        return self._powered

    def power_off(self) -> None:
        """Failure injection: node stops responding until powered on."""
        self._powered = False
        self.network.power_epoch += 1

    def power_on(self) -> None:
        self._powered = True
        self.network.power_epoch += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        addr = str(self.address) if self.interfaces else "unaddressed"
        return f"<{type(self).__name__} {self.name} {addr}>"


class Router(Node):
    """An interior node that forwards traffic; no application endpoints."""

    __slots__ = ()


# Type of a datagram handler: (source_address, source_port, payload) -> None
DatagramHandler = Callable[[Address, int, object], None]


class Host(Node):
    """An end host: can bind ports for datagram and stream services.

    The port table is intentionally simple — one handler per port — since
    simulated services own well-known ports. Transport connections are
    managed by :mod:`repro.transport`, which uses :meth:`bind_stream`.
    """

    __slots__ = ("_datagram_handlers", "_stream_listeners", "nat_device")

    def __init__(self, name: str, network: "Network") -> None:
        super().__init__(name, network)
        self._datagram_handlers: Dict[int, DatagramHandler] = {}
        self._stream_listeners: Dict[int, object] = {}
        # Marks hosts inside a home behind this NAT, set by topology builders.
        self.nat_device = None

    # -- datagrams -------------------------------------------------------

    def bind_datagram(self, port: int, handler: DatagramHandler) -> None:
        if port in self._datagram_handlers:
            raise ValueError(f"port {port} already bound on {self.name}")
        self._datagram_handlers[port] = handler

    def deliver_datagram(self, source: Address, source_port: int,
                         dest_port: int, payload: object) -> bool:
        """Called by the datagram service; returns whether a handler ran."""
        if not self._powered:
            return False
        handler = self._datagram_handlers.get(dest_port)
        if handler is None:
            return False
        handler(source, source_port, payload)
        return True

    # -- streams ----------------------------------------------------------

    def bind_stream(self, port: int, listener: object) -> None:
        if port in self._stream_listeners:
            raise ValueError(f"stream port {port} already bound on {self.name}")
        self._stream_listeners[port] = listener

    def unbind_stream(self, port: int) -> None:
        self._stream_listeners.pop(port, None)

    def stream_listener(self, port: int) -> Optional[object]:
        if not self._powered:
            return None
        return self._stream_listeners.get(port)
