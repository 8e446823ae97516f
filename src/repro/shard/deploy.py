"""Run a sharded Catfish cluster: K servers, routed closed-loop clients.

The closed-loop driver of
:class:`~repro.cluster.builder.ClosedLoopRunner` over a *routed*
:class:`~repro.cluster.deployment.Deployment`: K fully independent
Catfish servers — each with its own host, star network, R*-tree over its
partition slice, fast-messaging worker pool and heartbeat service — on
one shared simulator.  Every client opens one session *per shard* (so
each shard's heartbeat independently drives that client's Algorithm 1
back-off state for that shard) and issues its requests through a
:class:`~repro.shard.router.ScatterGatherRouter`.

Determinism contract: the dataset and each client's workload stream are
derived exactly as in the single-server runner (same seed → same items,
same requests), while all shard-side randomness comes from
``RngRegistry.shard(k)`` — a function of ``(seed, shard_id)`` only — so
changing the shard count never perturbs another shard's streams and a
sharded run is comparable against the single-server oracle.
"""

from __future__ import annotations

from ..cluster.builder import ClosedLoopRunner
from ..cluster.config import ExperimentConfig


class ShardedExperimentRunner(ClosedLoopRunner):
    """K >= 1 shard servers, ``n_clients`` scatter-gather routers."""

    routed = True

    def __init__(self, config: ExperimentConfig,
                 record_results: bool = False, workload_fn=None):
        super().__init__(config, record_results=record_results,
                         workload_fn=workload_fn)
        deployment = self.deployment
        self.n_shards = deployment.n_shards
        self.dataset = deployment.dataset
        self.partition = deployment.partition
        self.shards = deployment.stacks
        self.routers = deployment.endpoints
        self.router_stats = [r.router_stats for r in self.routers]
        #: ``sessions[client_id][shard_id]`` — the per-shard sub-sessions.
        self.sessions = [r.sessions for r in self.routers]
        self.live_map = deployment.live_map
        self.rebalancer = deployment.rebalancer
        self.rebalance_stats = deployment.rebalance_stats
        self.initial_occupancy = deployment.initial_occupancy
        self.shard_occupancy = deployment.shard_occupancy

    def _extra(self) -> dict:
        """The shard-plane report: router totals, per-shard occupancy
        and, on an elastic plane, the controller's counters."""
        def routed(field: str) -> float:
            return float(sum(int(getattr(r, field))
                             for r in self.router_stats))

        extra = {
            "n_shards": float(self.n_shards),
            "partial_results": routed("partial_results"),
            "shards_pruned": routed("shards_pruned"),
        }
        for shard_id, held in enumerate(self.shard_occupancy()):
            extra[f"shard{shard_id}_items"] = float(held)
        if self.rebalance_stats is not None:
            for name, value in self.rebalance_stats.snapshot().items():
                extra[f"rebalance_{name}"] = float(value)
            extra["map_epoch"] = float(self.live_map.epoch)
            extra["epoch_rescatters"] = routed("epoch_rescatters")
            extra["rescattered_subqueries"] = routed(
                "rescattered_subqueries")
        return extra
