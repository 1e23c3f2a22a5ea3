"""Transport layer: flow-level TCP and MPTCP."""

from repro.transport.mptcp import MptcpConnection, MptcpSubflow
from repro.transport.tcp import (
    DEFAULT_INITIAL_WINDOW_SEGMENTS,
    MSS,
    FlowStats,
    TcpConnection,
    TcpFlow,
)

__all__ = [
    "MptcpConnection",
    "MptcpSubflow",
    "DEFAULT_INITIAL_WINDOW_SEGMENTS",
    "MSS",
    "FlowStats",
    "TcpConnection",
    "TcpFlow",
]
