"""Client-side access schemes: TCP, fast messaging, offloading, Catfish."""

from .adaptive import AdaptiveParams, most_recent_utilization
from .predictors import (
    EwmaPredictor,
    TrendPredictor,
    make_predictor,
    most_recent,
)
from .base import (
    OP_DELETE,
    OP_INSERT,
    OP_SEARCH,
    ClientStats,
    Request,
    RequestIdAllocator,
)
from .fm_client import FmSession
from .offload_client import OffloadEngine, OffloadError
from .tcp_client import TcpSession

__all__ = [
    "AdaptiveParams",
    "most_recent_utilization",
    "EwmaPredictor",
    "TrendPredictor",
    "make_predictor",
    "most_recent",
    "OP_DELETE",
    "OP_INSERT",
    "OP_SEARCH",
    "ClientStats",
    "Request",
    "RequestIdAllocator",
    "FmSession",
    "OffloadEngine",
    "OffloadError",
    "TcpSession",
]
