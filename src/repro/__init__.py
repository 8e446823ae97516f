"""Catfish: adaptive RDMA-enabled R-tree (ICDCS 2019) — full reproduction.

The package reproduces the paper's entire system on a discrete-event
simulation substrate (see DESIGN.md for the substitution rationale):

* :mod:`repro.rtree` — the R\\*-tree with FaRM-style versioning and locks;
* :mod:`repro.sim` / :mod:`repro.hw` / :mod:`repro.net` — the simulation
  substrate: event kernel, CPUs, NICs, links, fabric profiles;
* :mod:`repro.transport` — TCP/IP and RDMA verbs models;
* :mod:`repro.msg` — ring buffers and the message codec;
* :mod:`repro.server` / :mod:`repro.client` — fast messaging, RDMA
  offloading, and the adaptive Catfish client (Algorithm 1);
* :mod:`repro.workloads` — the paper's workload generators, including a
  synthetic rea02;
* :mod:`repro.cluster` — experiment assembly and metrics;
* :mod:`repro.shard` — sharded multi-server deployment: STR cluster
  partitioning, the scatter-gather spatial router with partial-failure
  semantics, and oracle verification (see docs/architecture.md);
* :mod:`repro.obs` — metrics registry, trace spans and JSON export
  (see docs/observability.md);
* :mod:`repro.traffic` — open-loop million-user traffic: aggregated
  clients, connection multiplexing, tail-latency-under-load harness
  (see docs/architecture.md, traffic layer).

Quickstart::

    from repro import ExperimentConfig, run_experiment

    result = run_experiment(ExperimentConfig(
        scheme="catfish", fabric="ib-100g",
        n_clients=16, requests_per_client=200,
        scale="0.00001", dataset_size=20_000,
    ))
    print(result.throughput_kops, result.mean_latency_us)
"""

from .client import (
    AdaptiveParams,
    ClientStats,
    FmSession,
    OffloadEngine,
    Request,
    TcpSession,
)
from .cluster import (
    ExperimentConfig,
    ExperimentRunner,
    RunResult,
    SCHEMES,
    run_experiment,
    scheme_spec,
)
from .obs import (
    MetricsRegistry,
    Tracer,
    load_metrics_json,
    snapshot_document,
    write_metrics_json,
)
from .rtree import RStarTree, Rect, bulk_load
from .shard import (
    PartialResult,
    ScatterGatherRouter,
    ShardMap,
    ShardedExperimentRunner,
    partition_str,
)
from .server import (
    CostModel,
    FastMessagingServer,
    HeartbeatService,
    RTreeServer,
    TcpRTreeServer,
)
from .sim import Simulator
from .traffic import TrafficConfig
from .traffic.harness import (
    TrafficResult,
    TrafficRunner,
    rate_sweep,
    run_traffic,
)
from .workloads import (
    generate_rea02,
    generate_rea02_queries,
    make_workload,
    uniform_dataset,
)

__version__ = "1.0.0"

__all__ = [
    "AdaptiveParams",
    "ClientStats",
    "FmSession",
    "OffloadEngine",
    "Request",
    "TcpSession",
    "ExperimentConfig",
    "ExperimentRunner",
    "RunResult",
    "SCHEMES",
    "run_experiment",
    "scheme_spec",
    "MetricsRegistry",
    "Tracer",
    "load_metrics_json",
    "snapshot_document",
    "write_metrics_json",
    "RStarTree",
    "Rect",
    "bulk_load",
    "PartialResult",
    "ScatterGatherRouter",
    "ShardMap",
    "ShardedExperimentRunner",
    "partition_str",
    "CostModel",
    "FastMessagingServer",
    "HeartbeatService",
    "RTreeServer",
    "TcpRTreeServer",
    "Simulator",
    "TrafficConfig",
    "TrafficResult",
    "TrafficRunner",
    "rate_sweep",
    "run_traffic",
    "generate_rea02",
    "generate_rea02_queries",
    "make_workload",
    "uniform_dataset",
    "__version__",
]
