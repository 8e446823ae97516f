"""Transports: TCP/IP (kernel path) and RDMA verbs (one-sided path)."""

from .rdma import CompletionChannel, QpEndpoint, RdmaError, connect
from .tcp import TcpConnection, TcpMessage

__all__ = [
    "CompletionChannel",
    "QpEndpoint",
    "RdmaError",
    "connect",
    "TcpConnection",
    "TcpMessage",
]
