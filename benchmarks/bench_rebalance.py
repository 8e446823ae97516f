"""Elastic shard plane: skewed throughput recovers after auto-split.

Three claims, all beyond the paper's static-partition figures:

1. **Skew recovery** — a K=4 deployment fed quadrant-concentrated
   queries starts with one hot shard.  With the rebalance controller on,
   tile splits + live migration spread the hot quadrant across shards
   and the *tail-window* throughput (second half of the run, after the
   splits land) recovers to >= 70% of the uniform-workload baseline.
   The static plane stays pinned on the hot shard and stays below that
   bar.  Every logged read still matches a single-tree oracle exactly
   (epoch-aware re-scatter absorbs the cut-overs; duplicates from
   overlapping scatter sets are dropped before the client sees them).
2. **Oracle under churn** — the verification pass replays every
   recorded result against a bulk-loaded reference tree; zero
   mismatches even though queries raced splits, cut-overs, and
   migration drains.
3. **Open loop** — the same controller under the ``repro.traffic``
   harness (Poisson arrivals, hotspot-skewed query centres, K=4):
   splits fire from live load with open-loop conservation intact
   (arrivals == completed + failed + shed).

Usable both ways::

    PYTHONPATH=src python benchmarks/bench_rebalance.py [--smoke]
    PYTHONPATH=src python -m pytest benchmarks/bench_rebalance.py
"""

from __future__ import annotations

import random
import sys
from typing import List, Optional, Tuple

from repro.cluster.config import ExperimentConfig, RebalanceConfig
from repro.rtree.node import Rect
from repro.shard.deploy import ShardedExperimentRunner
from repro.shard.verify import verify_routed_results
from repro.traffic import TrafficConfig
from repro.traffic.harness import TrafficRunner

#: Recovery bar: rebalanced-skewed tail throughput vs uniform baseline.
RECOVERY_RATIO = 0.70

#: Controller tuning for the bench: cycle fast enough to split within
#: the run, demand a clear 2x hot/mean imbalance, and keep the drain
#: short so cleanup does not monopolise the 1-core source shard.
BENCH_REBALANCE = RebalanceConfig(
    interval=0.3e-3,
    split_ratio=2.0,
    min_split_items=16,
    drain_s=0.1e-3,
)


def make_queries(n: int = 400, scale: float = 0.03, seed: int = 7,
                 quadrant: bool = False) -> List[Rect]:
    """Fixed query set: ``n`` rects of side ``scale``, centres uniform in
    the unit square (or its lower-left quadrant for the skewed leg)."""
    rng = random.Random(seed)
    hi = 0.5 if quadrant else 1.0
    out = []
    for _ in range(n):
        cx, cy = rng.uniform(0.0, hi), rng.uniform(0.0, hi)
        out.append(Rect(max(cx - scale / 2, 0.0), max(cy - scale / 2, 0.0),
                        min(cx + scale / 2, 1.0), min(cy + scale / 2, 1.0)))
    return out


def _config(queries: List[Rect], rebalance: Optional[RebalanceConfig],
            requests: int) -> ExperimentConfig:
    return ExperimentConfig(
        scheme="fast-messaging-event",
        workload_kind="queries",
        queries=queries,
        n_clients=8,
        requests_per_client=requests,
        dataset_size=2_000,
        max_entries=16,
        server_cores=1,
        n_shards=4,
        seed=0,
        rebalance=rebalance,
    )


def _tail_kops(runner: ShardedExperimentRunner) -> float:
    """Throughput over the second half of the run (completions with
    t >= t_end/2).  The splits land early; the tail window measures the
    plane *after* it adapted, which is the recovery claim."""
    t_end = runner.elapsed_s
    t_mid = t_end / 2.0
    late = sum(1 for router in runner.routers
               for (_i, _req, _res, t) in router.log if t >= t_mid)
    return late / (t_end - t_mid) / 1e3


def _run_leg(queries: List[Rect], rebalance: Optional[RebalanceConfig],
             requests: int) -> Tuple[ShardedExperimentRunner, float, dict]:
    runner = ShardedExperimentRunner(_config(queries, rebalance, requests),
                                     record_results=True)
    result = runner.run()
    return runner, _tail_kops(runner), result.extra


def run_skew_recovery_stage(smoke: bool = False) -> List[str]:
    requests = 500 if smoke else 800
    uniform = make_queries()
    skewed = make_queries(quadrant=True)

    _, uniform_tail, _ = _run_leg(uniform, None, requests)
    static_runner, static_tail, _ = _run_leg(skewed, None, requests)
    rebal_runner, rebal_tail, extra = _run_leg(skewed, BENCH_REBALANCE,
                                               requests)

    splits = int(extra.get("rebalance_splits", 0))
    migrations = int(extra.get("rebalance_migrations_completed", 0))
    occupancy = [int(extra[f"shard{k}_items"]) for k in range(4)]
    assert splits > 0, "controller never split the hot shard"
    assert migrations > 0, "no migration completed"
    assert rebal_tail >= RECOVERY_RATIO * uniform_tail, (
        f"rebalanced skewed tail {rebal_tail:.1f} kops did not recover to "
        f"{RECOVERY_RATIO:.0%} of uniform baseline {uniform_tail:.1f} kops"
    )
    assert static_tail < RECOVERY_RATIO * uniform_tail, (
        f"static plane unexpectedly healthy: {static_tail:.1f} vs "
        f"uniform {uniform_tail:.1f} kops — the skew leg lost its bite"
    )
    assert rebal_tail > static_tail, (
        f"rebalancing made the skewed leg worse: {rebal_tail:.1f} vs "
        f"static {static_tail:.1f} kops"
    )

    # Claim 2: every recorded read matches the single-tree oracle, on
    # both the churning plane and the static one.
    for label, runner in (("rebalanced", rebal_runner),
                          ("static", static_runner)):
        summary = verify_routed_results(runner)
        assert summary.ok, f"{label} oracle mismatch: {summary}"
        assert summary.checked > 0

    ratio = rebal_tail / uniform_tail if uniform_tail else float("nan")
    return [
        f"uniform baseline    tail={uniform_tail:7.1f} kops",
        f"skewed static       tail={static_tail:7.1f} kops "
        f"({static_tail / uniform_tail:.0%} of baseline)",
        f"skewed rebalanced   tail={rebal_tail:7.1f} kops "
        f"({ratio:.0%} of baseline), {splits} splits, "
        f"{migrations} migrations, occupancy {occupancy}",
    ]


def run_open_loop_stage(smoke: bool = False) -> List[str]:
    traffic = TrafficConfig(
        kind="poisson",
        rate=100_000.0 if smoke else 200_000.0,
        duration_s=2e-3,
        n_aggregates=4,
        users_per_aggregate=1000,
        sessions=4,
        queue_watermark=64,
        window=256,
        hotspot_skew=True,
    )
    config = ExperimentConfig(
        scheme="fast-messaging-event",
        fabric="ib-100g",
        dataset_size=2_000,
        max_entries=16,
        seed=0,
        n_shards=4,
        rebalance=BENCH_REBALANCE,
        traffic=traffic,
    )
    runner = TrafficRunner(config)
    result = runner.run()
    stats = runner.rebalance_stats
    assert stats is not None and int(stats.splits) > 0, (
        "open-loop hotspot load never triggered a split"
    )
    accounted = (result.completed + result.failed
                 + result.shed_client_total)
    assert accounted == result.arrivals, (
        f"{result.arrivals} arrivals != {result.completed} completed + "
        f"{result.failed} failed + {result.shed_client_total} shed"
    )
    assert result.completed > 0
    return [
        f"offered {result.offered_rps:,.0f}/s achieved "
        f"{result.achieved_rps:,.0f}/s, {result.completed} completed, "
        f"{int(stats.splits)} splits / "
        f"{int(stats.migrations_completed)} migrations under open loop",
    ]


# -- pytest entry points ----------------------------------------------------

def test_rebalance_skew_recovery_smoke():
    run_skew_recovery_stage(smoke=True)


def test_rebalance_open_loop_smoke():
    run_open_loop_stage(smoke=True)


# -- CLI entry point --------------------------------------------------------

def main(argv) -> int:
    smoke = "--smoke" in argv[1:]
    print(f"== skew recovery ({'smoke' if smoke else 'full'}) ==")
    for line in run_skew_recovery_stage(smoke=smoke):
        print(line)

    print("\n== open loop (hotspot skew) ==")
    for line in run_open_loop_stage(smoke=smoke):
        print(line)

    print("\nall rebalance stages passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
