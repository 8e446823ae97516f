"""Sharded multi-server Catfish: STR partitioning + scatter-gather router.

Beyond the paper: K independent Catfish servers (each a full single-server
stack — R*-tree, fast-messaging rings, heartbeat, worker pool, adaptive
offload) front a spatially partitioned dataset, and a client-side
scatter-gather router fans queries out to intersecting shards, keeping
per-shard adaptive back-off state and degrading to partial results when a
shard is lost.  See docs/architecture.md ("Sharding").
"""

from .partition import (
    Partition,
    ShardInfo,
    ShardMap,
    TileEntry,
    partition_str,
    tile_contains,
)
from .rebalance import RebalanceConfig, RebalanceController, RebalanceStats
from .router import (
    OFFLOAD_ERROR,
    OK,
    SKIPPED,
    TIMEOUT,
    PartialResult,
    RouterStats,
    ScatterGatherRouter,
    merge_search_replies,
)
from .deploy import ShardedExperimentRunner

__all__ = [
    "OFFLOAD_ERROR",
    "OK",
    "SKIPPED",
    "TIMEOUT",
    "Partition",
    "PartialResult",
    "RebalanceConfig",
    "RebalanceController",
    "RebalanceStats",
    "RouterStats",
    "ScatterGatherRouter",
    "ShardInfo",
    "ShardMap",
    "ShardedExperimentRunner",
    "TileEntry",
    "merge_search_replies",
    "partition_str",
    "tile_contains",
]
