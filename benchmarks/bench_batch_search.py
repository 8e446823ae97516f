"""Cross-query batched search: visits/s floor, e2e RTT savings, fallback.

Three claims, all beyond the paper (SIMD-style scan vectorization after
Rayhan & Aref, plus cross-query frontier sharing):

1. **Engine throughput** — the shared-frontier ``BatchSearchEngine``
   sustains at least ``VISITS_SPEEDUP_FLOOR`` x the sequential
   ``RStarTree.search`` visit rate on the same query stream, while
   returning bit-identical per-query results (asserted, not assumed).
2. **Offloaded batching** — an ``rdma-offloading-multi`` run with
   ``batch_queries`` grouping outperforms the sequential run of the
   same workload: the shared traversal reads each frontier chunk once
   per group instead of once per query.
3. **Fallback** — with the pure-Python kernel forced, the engine still
   returns oracle-identical results (no throughput floor: the fallback
   is a correctness path, not a fast path).

Usable both ways::

    PYTHONPATH=src python benchmarks/bench_batch_search.py [--smoke]
    PYTHONPATH=src python -m pytest benchmarks/bench_batch_search.py
"""

from __future__ import annotations

import sys
import time
from typing import Dict

from repro import ExperimentConfig, run_experiment
from repro.rtree import Rect, bulk_load, forced_kernel, kernel_name
from repro.rtree.batch import BatchSearchEngine
from repro.sim.rng import RngRegistry
from repro.workloads import uniform_dataset

#: Batched visits/s must beat sequential by at least this factor.
VISITS_SPEEDUP_FLOOR = 2.0
#: Batched end-to-end throughput must beat sequential by this factor.
E2E_SPEEDUP_FLOOR = 1.2


#: Queries per shared-frontier group in the batched search stage.  The
#: amortization factor is bounded by (group size x visits-per-query) /
#: tree size, so the group must be deep enough for queries to overlap;
#: 4096 over the 40k-item tree revisits each hot node ~25x fewer times
#: than sequential search does.
BATCH_GROUP_SIZE = 4096


def _tree_and_queries(dataset_size: int, n_queries: int):
    """One bulk-loaded tree and a fixed stream of mid-size queries (a
    few leaf nodes per search)."""
    tree = bulk_load(uniform_dataset(dataset_size, seed=0))
    rng = RngRegistry(0).stream("perf-search")
    side = 0.02
    queries = []
    for _ in range(n_queries):
        cx = rng.uniform(side, 1.0 - side)
        cy = rng.uniform(side, 1.0 - side)
        queries.append(Rect(cx - side / 2, cy - side / 2,
                            cx + side / 2, cy + side / 2))
    return tree, queries


def bench_search_visits(dataset_size: int, n_queries: int,
                        repeats: int = 1) -> Dict[str, float]:
    """Range scans over a bulk-loaded tree (the server's scan kernel);
    best-of-``repeats`` wall."""
    tree, queries = _tree_and_queries(dataset_size, n_queries)
    wall = None
    for _ in range(max(1, repeats)):
        visits = 0
        matches = 0
        start = time.perf_counter()
        for query in queries:
            result = tree.search(query)
            visits += result.nodes_visited
            matches += result.count
        elapsed = time.perf_counter() - start
        wall = elapsed if wall is None else min(wall, elapsed)
    return {"queries": n_queries, "visits": visits, "matches": matches,
            "wall_s": wall, "visits_per_s": visits / wall}


def bench_search_visits_batched(dataset_size: int, n_queries: int,
                                repeats: int = 1,
                                batch_size: int = BATCH_GROUP_SIZE
                                ) -> Dict[str, float]:
    """The same scans through the cross-query batch engine.

    Identical tree, identical query stream, identical per-query results
    (asserted by the callers); ``visits`` counts the same per-query node
    visits as the sequential stage, so visits/s is directly comparable —
    the batch engine's whole advantage is doing those visits as shared
    (Q x E) matrix evaluations, each tree node scanned once per group.
    """
    tree, queries = _tree_and_queries(dataset_size, n_queries)
    groups = [queries[i:i + batch_size]
              for i in range(0, len(queries), batch_size)]
    wall = None
    for _ in range(max(1, repeats)):
        engine = BatchSearchEngine(tree)
        visits = 0
        matches = 0
        start = time.perf_counter()
        for group in groups:
            for result in engine.search_batch(group):
                visits += result.nodes_visited
                matches += result.count
        elapsed = time.perf_counter() - start
        wall = elapsed if wall is None else min(wall, elapsed)
    return {"queries": n_queries, "batch_size": batch_size,
            "visits": visits, "matches": matches,
            "shared_visits": engine.shared_visits,
            "wall_s": wall, "visits_per_s": visits / wall}


def run_engine_stage(smoke: bool = False) -> dict:
    """Sequential vs batched visit rate over the same tree + queries."""
    dataset = 20_000 if smoke else 40_000
    queries = 6_000 if smoke else 10_000
    sequential = bench_search_visits(dataset, queries, repeats=3)
    batched = bench_search_visits_batched(dataset, queries, repeats=3)
    assert batched["matches"] == sequential["matches"], "result divergence"
    assert batched["visits"] == sequential["visits"], "visit divergence"
    return {
        "kernel": kernel_name(),
        "sequential_visits_per_s": sequential["visits_per_s"],
        "batched_visits_per_s": batched["visits_per_s"],
        "speedup": batched["visits_per_s"] / sequential["visits_per_s"],
        "batch_size": batched["batch_size"],
        "amortization": batched["visits"] / max(1, batched["shared_visits"]),
    }


def run_e2e_stage(smoke: bool = False) -> dict:
    """Offload scheme with and without driver-level query batching."""
    rows = {}
    for label, batch_queries in (("off", 0), ("on", 8)):
        config = ExperimentConfig(
            scheme="rdma-offloading-multi",
            fabric="ib-100g",
            n_clients=4,
            requests_per_client=64 if smoke else 200,
            workload_kind="search",
            scale="0.01",
            dataset_size=4_000 if smoke else 20_000,
            batch_queries=batch_queries,
            seed=0,
        )
        result = run_experiment(config)
        metrics = result.metrics["metrics"]
        rows[label] = {
            "throughput_kops": result.throughput_kops,
            "results": metrics["client.results_received"]["value"],
            "chunks_fetched": metrics["offload.chunks_fetched"]["value"],
        }
    rows["speedup"] = (rows["on"]["throughput_kops"]
                       / rows["off"]["throughput_kops"])
    return rows


def run_fallback_stage(smoke: bool = False) -> dict:
    """The pure-Python kernel returns the same matches and visit counts."""
    dataset = 5_000 if smoke else 20_000
    queries = 500 if smoke else 2_000
    with forced_kernel("python"):
        assert kernel_name() == "python"
        sequential = bench_search_visits(dataset, queries)
        batched = bench_search_visits_batched(dataset, queries)
    assert batched["matches"] == sequential["matches"], "fallback divergence"
    assert batched["visits"] == sequential["visits"], "fallback divergence"
    return {"matches": batched["matches"], "visits": batched["visits"]}


def check(engine: dict, e2e: dict) -> None:
    assert engine["speedup"] >= VISITS_SPEEDUP_FLOOR, engine
    assert e2e["speedup"] >= E2E_SPEEDUP_FLOOR, e2e
    # Same workload, same seed: batching must not change what is served.
    assert e2e["on"]["results"] == e2e["off"]["results"], e2e
    assert e2e["on"]["chunks_fetched"] < e2e["off"]["chunks_fetched"], e2e


def test_batched_search_floors():
    engine = run_engine_stage(smoke=True)
    e2e = run_e2e_stage(smoke=True)
    run_fallback_stage(smoke=True)
    check(engine, e2e)


def main(argv) -> int:
    smoke = "--smoke" in argv[1:]
    engine = run_engine_stage(smoke=smoke)
    print(f"engine ({engine['kernel']} kernel, "
          f"Q={engine['batch_size']}/group):")
    print(f"  sequential {engine['sequential_visits_per_s']:>12,.0f} visits/s")
    print(f"  batched    {engine['batched_visits_per_s']:>12,.0f} visits/s "
          f"({engine['speedup']:.2f}x, floor {VISITS_SPEEDUP_FLOOR:.1f}x; "
          f"{engine['amortization']:.1f} queries/shared visit)")
    e2e = run_e2e_stage(smoke=smoke)
    print("end-to-end rdma-offloading-multi:")
    for label in ("off", "on"):
        row = e2e[label]
        print(f"  batching {label:>3}: {row['throughput_kops']:>8.0f} Kops, "
              f"{row['chunks_fetched']:>8} chunk reads")
    print(f"  speedup: {e2e['speedup']:.2f}x (floor {E2E_SPEEDUP_FLOOR:.1f}x)")
    fallback = run_fallback_stage(smoke=smoke)
    print(f"fallback kernel: {fallback['matches']} matches / "
          f"{fallback['visits']} visits, oracle-identical")
    check(engine, e2e)
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
