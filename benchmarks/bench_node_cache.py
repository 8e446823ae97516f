"""Client-side node cache: RTTs saved and exactness under write storms.

Two claims, both beyond the paper (RDMAbox-style client caching grafted
onto the offload path):

1. **RTT savings** — on a repeated-search workload the cache serves the
   upper tree levels locally, cutting ``offload.chunks_fetched`` per
   search by at least 30% (the acceptance floor; typically ~2/3 for
   point-ish queries whose traversals are mostly upper levels).
2. **Exactness** — cache-served searches return exactly what the server
   tree would, including while a write-storm fault toggles node versions
   and concurrent inserts advance the mutation high-water mark.

Usable both ways::

    PYTHONPATH=src python benchmarks/bench_node_cache.py [--smoke]
    PYTHONPATH=src python -m pytest benchmarks/bench_node_cache.py
"""

from __future__ import annotations

import sys

from repro import ExperimentConfig, run_experiment
from repro.client.node_cache import NodeCacheConfig
from repro.chaos import run_scenario

#: The acceptance floor: cache-enabled repeated searches must post at
#: least this much fewer one-sided chunk reads per search.
REDUCTION_FLOOR = 0.30


def _config(cache: bool, smoke: bool) -> ExperimentConfig:
    return ExperimentConfig(
        scheme="rdma-offloading-multi",
        fabric="ib-100g",
        n_clients=4,
        requests_per_client=50 if smoke else 200,
        workload_kind="search",
        # Result-bearing queries: the off/on equality check below then
        # compares real match sets, not two empty ones.
        scale="0.01",
        dataset_size=2_000 if smoke else 10_000,
        seed=0,
        node_cache=NodeCacheConfig() if cache else None,
    )


def run_savings(smoke: bool = False) -> dict:
    """Cache off vs on over the same repeated-search workload."""
    rows = {}
    for label, cache in (("off", False), ("on", True)):
        result = run_experiment(_config(cache, smoke))
        metrics = result.metrics["metrics"]
        searches = metrics["client.offloaded_requests"]["value"]
        chunks = metrics["offload.chunks_fetched"]["value"]
        rows[label] = {
            "searches": searches,
            "chunks_fetched": chunks,
            "chunks_per_search": chunks / searches,
            "results": metrics["client.results_received"]["value"],
            "p50_us": result.p50_latency_us,
            "hits": metrics.get("cache.hits", {}).get("value", 0),
            "misses": metrics.get("cache.misses", {}).get("value", 0),
        }
    off, on = rows["off"], rows["on"]
    rows["reduction"] = 1.0 - (on["chunks_per_search"]
                               / off["chunks_per_search"])
    return rows


def run_storm_exactness(smoke: bool = False) -> dict:
    """Write-storm chaos scenario with the cache enabled: the harness
    compares every response against the server tree (the oracle).

    Summed over seeds 0-3: with a cached root, whether the storm trips
    a breaker depends on the back-off draw, and exactness must not.
    """
    reports = [
        run_scenario(
            "write-storm",
            seed=seed,
            n_clients=2,
            requests_per_client=100 if smoke else 300,
            dataset_size=1_000 if smoke else 2_000,
            node_cache=NodeCacheConfig(),
        )
        for seed in range(4)
    ]
    return {
        "ok": all(r.ok for r in reports),
        "mismatches": sum(r.mismatches for r in reports),
        "completed": sum(r.completed for r in reports),
        "issued": sum(r.issued for r in reports),
        "failures": [f"seed {r.seed}: {failure}"
                     for r in reports for failure in r.failures],
    }


def check(savings: dict, storm: dict) -> None:
    assert savings["reduction"] >= REDUCTION_FLOOR, savings
    # Same workload, same seed: identical result cardinalities.
    assert savings["on"]["results"] == savings["off"]["results"], savings
    assert savings["on"]["hits"] > 0, savings
    assert storm["mismatches"] == 0, storm
    assert storm["ok"], storm["failures"]


def test_node_cache_savings_and_exactness():
    savings = run_savings(smoke=True)
    storm = run_storm_exactness(smoke=True)
    check(savings, storm)


def main(argv) -> int:
    smoke = "--smoke" in argv[1:]
    savings = run_savings(smoke=smoke)
    storm = run_storm_exactness(smoke=smoke)
    off, on = savings["off"], savings["on"]
    print("node cache: repeated-search RTT savings")
    print(f"  {'':>10} {'chunks/search':>14} {'p50_us':>8} {'results':>8}")
    for label, row in (("cache off", off), ("cache on", on)):
        print(f"  {label:>10} {row['chunks_per_search']:>14.2f} "
              f"{row['p50_us']:>8.2f} {row['results']:>8}")
    print(f"  reduction: {savings['reduction'] * 100:.1f}% "
          f"(floor {REDUCTION_FLOOR * 100:.0f}%); "
          f"hits {on['hits']}, misses {on['misses']}")
    print("write-storm exactness (cache on): "
          f"{storm['completed']}/{storm['issued']} completed, "
          f"{storm['mismatches']} oracle mismatches")
    check(savings, storm)
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
