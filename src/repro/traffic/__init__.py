"""repro.traffic — the open-loop million-user traffic layer.

Aggregated clients (``aggregate``) superpose thousands of virtual users
onto seed-deterministic arrival processes (``arrivals``) and issue them
through an RDMAvisor-style connection mux (``mux``) onto a small pool of
shared sessions; the harness (``harness``) measures offered-vs-achieved
throughput and p50/p95/p99/p99.9 sojourn time.  See
docs/architecture.md (traffic layer) and docs/paper_mapping.md.

The harness (and everything that pulls in the cluster layer) is
exported lazily: ``repro.cluster.config`` imports
:class:`~repro.traffic.config.TrafficConfig` from this package, and an
eager harness import here would be a cycle.
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
    "TrafficResult",
    "TrafficRunner",
    "aggregate_generator",
    "make_rate_fn",
    "rate_sweep",
    "run_traffic",
]

_HARNESS_EXPORTS = ("TrafficResult", "TrafficRunner", "rate_sweep",
                    "run_traffic")


def __getattr__(name):
    if name not in _HARNESS_EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import harness
    return getattr(harness, name)
