"""repro.traffic — the open-loop million-user traffic layer.

Aggregated clients (``aggregate``) superpose thousands of virtual users
onto seed-deterministic arrival processes (``arrivals``) and issue them
through an RDMAvisor-style connection mux (``mux``) onto a small pool of
shared sessions; the harness (``harness``) measures offered-vs-achieved
throughput and p50/p95/p99/p99.9 sojourn time.  See
docs/architecture.md (traffic layer) and docs/paper_mapping.md.
"""

from .aggregate import AggregateClient
from .arrivals import (
    ArrivalGenerator,
    ConstantRate,
    DiurnalRate,
    FlashCrowdRate,
    aggregate_generator,
    make_rate_fn,
)
from .config import TrafficConfig
from .mux import ConnectionMux, TokenBucket, TrafficJob

__all__ = [
    "ArrivalGenerator",
    "AggregateClient",
    "ConnectionMux",
    "ConstantRate",
    "DiurnalRate",
    "FlashCrowdRate",
    "TokenBucket",
    "TrafficConfig",
    "TrafficJob",
    "aggregate_generator",
    "make_rate_fn",
]
