"""Transports: TCP/IP (kernel path) and RDMA verbs (one-sided path)."""

from .rdma import (
    READ,
    RECV_IMM,
    WRITE,
    WRITE_IMM,
    Completion,
    CompletionChannel,
    CompletionQueue,
    QpEndpoint,
    RdmaError,
    connect,
)
from .tcp import TcpConnection, TcpMessage

__all__ = [
    "READ",
    "RECV_IMM",
    "WRITE",
    "WRITE_IMM",
    "Completion",
    "CompletionChannel",
    "CompletionQueue",
    "QpEndpoint",
    "RdmaError",
    "connect",
    "TcpConnection",
    "TcpMessage",
]
