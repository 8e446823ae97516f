"""Experiment configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..client.adaptive import AdaptiveParams
from ..client.node_cache import NodeCacheConfig
from ..client.resilience import BreakerParams, RetryPolicy
from ..faults.plan import FaultPlan
from ..rtree.geometry import Rect
from ..rtree.node import DEFAULT_MAX_ENTRIES
from ..server.costs import DEFAULT_COSTS, CostModel
from ..server.heartbeat import DEFAULT_HEARTBEAT_INTERVAL
from ..traffic.config import TrafficConfig
from ..workloads.mixes import WORKLOAD_KINDS


@dataclass(frozen=True)
class RebalanceConfig:
    """Tunables of the elastic shard plane (see repro.shard.rebalance).

    Lives here (not in ``repro.shard``) so :class:`ExperimentConfig` can
    carry it without an import cycle; ``repro.shard.rebalance`` re-exports
    it.  All golden fingerprints are pinned on ``ExperimentConfig``'s
    default of ``rebalance=None`` (no controller, static plane).
    """

    #: Controller cycle period (simulated seconds between load reads,
    #: and before the first cycle).
    interval: float = 0.05e-3
    #: A shard is "hot" when its per-cycle load exceeds
    #: ``split_ratio`` x the mean per-shard load.
    split_ratio: float = 1.5
    #: Never split a shard holding fewer items than this.
    min_split_items: int = 32
    #: Ceiling on routing-table growth (splits stop at this many tiles).
    max_tiles: int = 64
    #: Simulated drain time between the epoch cut-over and the source-side
    #: deletes: queries that scattered against the old plane finish
    #: against a source that still holds the moved items.  (The router's
    #: epoch-aware re-scatter is the safety net if a straggler outlives
    #: even this window.)
    drain_s: float = 0.3e-3

    def __post_init__(self):
        if self.interval <= 0:
            raise ValueError(f"interval must be > 0, got {self.interval}")
        if self.split_ratio < 1.0:
            raise ValueError(
                f"split_ratio must be >= 1, got {self.split_ratio}"
            )
        if self.min_split_items < 2:
            raise ValueError(
                f"min_split_items must be >= 2, got {self.min_split_items}"
            )
        if self.max_tiles < 1:
            raise ValueError(
                f"max_tiles must be >= 1, got {self.max_tiles}"
            )
        if self.drain_s < 0:
            raise ValueError(f"drain_s must be >= 0, got {self.drain_s}")


#: Cores of every client host.
CLIENT_CORES = 2

#: The index behind the ring buffer: the paper's R-tree, or one of the
#: §VI framework extensions.
INDEXES = ("rtree", "btree", "cuckoo")


@dataclass(frozen=True)
class KvMix:
    """The request stream of a B+tree / cuckoo run (``index != "rtree"``).

    Each request's key is drawn Zipf-popular from the loaded keys; it is
    a GET with probability ``get_fraction``, a range scan (B+tree only)
    with ``scan_fraction``, and a PUT otherwise.
    """

    get_fraction: float = 0.9
    scan_fraction: float = 0.0
    zipf_s: float = 0.99

    def __post_init__(self):
        if self.get_fraction < 0 or self.scan_fraction < 0:
            raise ValueError("get/scan fractions must be >= 0")
        if self.get_fraction + self.scan_fraction > 1:
            raise ValueError("get/scan fractions exceed 1")


@dataclass
class ExperimentConfig:
    """Everything needed to run one point of a paper figure."""

    scheme: str = "catfish"
    fabric: str = "ib-100g"
    n_clients: int = 8
    requests_per_client: int = 100

    #: One of :data:`INDEXES`.  A B+tree or cuckoo index (paper §VI)
    #: holds ``dataset_size`` random integer keys and serves the ``kv``
    #: stream instead of ``workload_kind``'s rectangles.
    index: str = "rtree"
    kv: KvMix = KvMix()

    # Workload.
    #: One of :data:`~repro.workloads.mixes.WORKLOAD_KINDS`.
    workload_kind: str = "search"
    scale: str = "0.00001"         # "0.00001" | "0.01" | "powerlaw"
    insert_fraction: float = 0.1
    queries: Sequence[Rect] = ()

    # Dataset / tree.
    dataset_size: int = 50_000
    dataset: Optional[List[Tuple[Rect, int]]] = None
    #: Node capacity of the R-tree or B+tree.
    max_entries: int = DEFAULT_MAX_ENTRIES
    #: Serve one-sided reads as real packed chunk bytes (full-fidelity
    #: FaRM validation on the client; slower to simulate).  The
    #: reference the default snapshot path is checked against
    #: (``test_byte_mode_experiment``).  Trees only: a cuckoo bucket has
    #: no byte image.
    byte_mode: bool = False

    # Hardware / costs.
    server_cores: int = 28
    costs: CostModel = field(default_factory=lambda: DEFAULT_COSTS)

    # Adaptive parameters (paper: N=8, T=95%, Inv=10ms).  When left None,
    # the client-side Inv is derived from ``heartbeat_interval`` so that
    # shortening the heartbeat automatically shortens the clients' reading
    # cadence (they are "agreed when the connection is established", §IV-A).
    adaptive: Optional[AdaptiveParams] = None
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL

    #: Shard count for the sharded runner; None defers to the scheme's
    #: ``shards`` (1 for every single-server scheme).  Any value > 1
    #: routes the run through ``repro.shard.deploy``.
    n_shards: Optional[int] = None

    #: Elastic shard plane.  Every routed deployment shares one shard
    #: map across all routers and servers; when this is set, routers
    #: read epoch-aware and a
    #: :class:`~repro.shard.rebalance.RebalanceController` revises that
    #: map (tile split/merge, live item migration) as background work.
    #: None — the default every scheme and chaos golden fingerprint is
    #: pinned on — keeps the map's tiles as partitioned (writes still
    #: grow their covers).
    rebalance: Optional[RebalanceConfig] = None

    #: Batched reads: group up to this many consecutive searches of a
    #: client's stream into one batch (``PolicySession
    #: .execute_search_batch``: one shared offload traversal, or one
    #: fast-messaging request the server runs as one shared traversal;
    #: the sharded router sends one sub-batch per shard).  0/1 disables
    #: batching — the default, on which all scheme and chaos golden
    #: fingerprints are pinned.  TCP sessions silently degrade to
    #: sequential execution.
    batch_queries: int = 0

    seed: int = 0

    # Robustness (all default-off; see docs/robustness.md).
    #: Timed fault windows injected into the run (None/empty = no faults,
    #: no hooks attached).
    fault_plan: Optional[FaultPlan] = None
    #: Per-request deadline + retry budget for fast-messaging clients;
    #: None keeps the seed's block-forever behaviour.
    retry: Optional[RetryPolicy] = None
    #: Offload circuit breaker for adaptive clients; None propagates
    #: OffloadError as before.
    breaker: Optional[BreakerParams] = None
    #: Consecutive missing heartbeats before an adaptive client cancels
    #: its remaining offload budget; None disables the staleness check.
    stale_after_missing: Optional[int] = None
    #: Server overload guard: shed a consumed request when this many are
    #: still queued behind it; None disables shedding.
    max_queue_depth: Optional[int] = None

    #: Client-side cache of internal node views for the offload path
    #: (RDMAbox-style; see repro.client.node_cache).  None keeps
    #: the engine byte-identical to the cache-less seed — the golden
    #: fingerprints are pinned on that default.
    node_cache: Optional[NodeCacheConfig] = None

    #: Open-loop traffic block (arrival kind, offered rate, tenants,
    #: aggregate sizing).  None — the default every scheme and chaos
    #: golden fingerprint is pinned on — keeps the classic closed-loop
    #: drivers; setting it routes ``run_experiment`` through
    #: ``repro.traffic.harness`` instead.
    traffic: Optional[TrafficConfig] = None

    #: Structured tracing (per-request spans).  Off by default: a real
    #: tracer costs one bounded ring of events; NULL_TRACER costs nothing.
    trace: bool = False

    def __post_init__(self):
        if self.n_clients < 1:
            raise ValueError(f"n_clients must be >= 1, got {self.n_clients}")
        if self.requests_per_client < 1:
            raise ValueError(
                f"requests_per_client must be >= 1, got "
                f"{self.requests_per_client}"
            )
        if self.workload_kind not in WORKLOAD_KINDS:
            raise ValueError(f"unknown workload {self.workload_kind!r}")
        if self.index not in INDEXES:
            raise ValueError(
                f"unknown index {self.index!r}; known: {INDEXES}")
        if self.index != "rtree":
            if self.workload_kind != "search":
                raise ValueError(
                    f"workload {self.workload_kind!r} draws rectangles; "
                    f"a {self.index} index serves the kv stream")
            if self.traffic is not None:
                raise ValueError(
                    "open-loop aggregates draw rectangles; a "
                    f"{self.index} index runs closed-loop")
            if self.index == "cuckoo" and self.kv.scan_fraction > 0:
                raise ValueError("cuckoo hashing has no range scans")
            if self.index == "cuckoo" and self.byte_mode:
                raise ValueError("a cuckoo bucket has no byte image")
        if self.n_shards is not None and self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.batch_queries < 0:
            raise ValueError(
                f"batch_queries must be >= 0, got {self.batch_queries}"
            )
        if self.adaptive is None:
            self.adaptive = AdaptiveParams(Inv=self.heartbeat_interval)

    @property
    def total_requests(self) -> int:
        return self.n_clients * self.requests_per_client
