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

_LAZY = {
    "AggregateClient": "aggregate",
    "TrafficResult": "harness",
    "TrafficRunner": "harness",
    "rate_sweep": "harness",
    "run_traffic": "harness",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
