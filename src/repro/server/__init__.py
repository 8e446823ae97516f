"""Server-side components: tree server, schemes, heartbeats, costs."""

from .base import OffloadDescriptor, RTreeServer, TreeMeta
from .costs import DEFAULT_COSTS, CostModel
from .fast_messaging import (
    EVENT,
    POLLING,
    FastMessagingServer,
    FmConnection,
)
from .heartbeat import (
    DEFAULT_HEARTBEAT_INTERVAL,
    HeartbeatMailbox,
    HeartbeatService,
)
from .tcp_server import TcpRTreeServer

__all__ = [
    "OffloadDescriptor",
    "RTreeServer",
    "TreeMeta",
    "DEFAULT_COSTS",
    "CostModel",
    "EVENT",
    "POLLING",
    "FastMessagingServer",
    "FmConnection",
    "DEFAULT_HEARTBEAT_INTERVAL",
    "HeartbeatMailbox",
    "HeartbeatService",
    "TcpRTreeServer",
]
