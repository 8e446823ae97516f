"""The six scoreboard workloads: builders, inputs and oracle checks.

Every workload is built from the public builders only
(``ExperimentRunner``, ``ShardedExperimentRunner``, ``TrafficRunner``);
the program receives generated inputs (a seed, a query set) and never a
workload name.  See ``bench/README.md`` for why each workload exists and
which layers it loads.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, List

from repro.client.adaptive import AdaptiveParams
from repro.client.base import OP_INSERT, OP_SEARCH
from repro.client.node_cache import NodeCacheConfig
from repro.cluster.builder import ExperimentRunner
from repro.cluster.config import ExperimentConfig, RebalanceConfig
from repro.rtree.bulk import bulk_load
from repro.rtree.geometry import Rect
from repro.shard.deploy import ShardedExperimentRunner
from repro.shard.verify import verify_routed_results
from repro.sim.rng import RngRegistry
from repro.traffic.arrivals import aggregate_generator
from repro.traffic.config import TrafficConfig
from repro.traffic.harness import TrafficRunner
from repro.traffic.mux import OK
from repro.workloads.datasets import uniform_dataset
from repro.workloads.mixes import make_workload
from repro.workloads.scales import scale_generator

#: The paper's realistic power-law mix rescaled to 40k items exactly as
#: ``benchmarks/conftest.equivalent_scale`` does (x sqrt(2e6 / 4e4)):
#: mostly tiny CPU-bound queries plus a tail of large result-bearing
#: ones, about four results per search.
QUERY_SCALE = "powerlaw:7.07e-05:0.0707"
HEARTBEAT_S = 0.25e-3

#: Length of a full run, seconds; ``BENCHMARK.json`` carries the same.
RUN_SECONDS = 14

#: The fixed latency limit of ``slo_miss_share``.
SLO_LIMIT_S = 500e-6

#: The warm-up runs each workload at this share of its request count.
WARMUP_FRACTION = 0.05


class CheckFailed(Exception):
    """An oracle or conservation check did not hold."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _common(seed: int, **fields) -> ExperimentConfig:
    return ExperimentConfig(
        fabric="ib-100g",
        scale=QUERY_SCALE,
        heartbeat_interval=HEARTBEAT_S,
        adaptive=AdaptiveParams(N=8, T=0.95, Inv=HEARTBEAT_S),
        seed=seed,
        **fields,
    )


def _traffic(rate: float, duration_s: float) -> TrafficConfig:
    return TrafficConfig(
        kind="poisson", rate=rate, duration_s=duration_s,
        n_aggregates=4, users_per_aggregate=1000, sessions=16,
        queue_watermark=512, window=1024,
    )


def skew_queries(seed: int, n: int = 400, side: float = 0.03) -> List[Rect]:
    """The fixed query set of ``closed-shard-skew``: ``n`` squares of
    side ``side`` with centres in the lower-left quadrant."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        cx, cy = rng.uniform(0.0, 0.5), rng.uniform(0.0, 0.5)
        out.append(Rect(max(cx - side / 2, 0.0), max(cy - side / 2, 0.0),
                        min(cx + side / 2, 1.0), min(cy + side / 2, 1.0)))
    return out


# -- builders ----------------------------------------------------------------
# Each takes (seed, fraction of the full request count, record results?)
# and returns an un-run runner.

def _scaled(count: int, fraction: float) -> int:
    return max(1, round(count * fraction))


def _closed_search(seed, fraction, record):
    return ExperimentRunner(_common(
        seed, scheme="catfish", n_clients=48,
        requests_per_client=_scaled(210, fraction), dataset_size=40_000,
    ))


def _closed_hybrid(seed, fraction, record):
    return ExperimentRunner(_common(
        seed, scheme="catfish", n_clients=48,
        requests_per_client=_scaled(210, fraction), dataset_size=40_000,
        workload_kind="hybrid", insert_fraction=0.1,
        node_cache=NodeCacheConfig(),
    ))


def _closed_offload_cache(seed, fraction, record):
    return ExperimentRunner(_common(
        seed, scheme="rdma-offloading-multi", n_clients=32,
        requests_per_client=_scaled(320, fraction), dataset_size=40_000,
        node_cache=NodeCacheConfig(),
    ))


def _open_shard(rate: float, duration_s: float):
    def build(seed, fraction, record):
        return TrafficRunner(_common(
            seed, scheme="catfish", n_shards=4, server_cores=2,
            dataset_size=40_000,
            traffic=_traffic(rate, duration_s * fraction),
        ), record=record)
    return build


def _closed_shard_skew(seed, fraction, record):
    return ShardedExperimentRunner(_common(
        seed, scheme="fast-messaging-event", n_shards=4, server_cores=1,
        dataset_size=8_000, max_entries=16, workload_kind="queries",
        queries=skew_queries(seed), n_clients=8,
        requests_per_client=_scaled(1250, fraction),
        rebalance=RebalanceConfig(interval=0.3e-3, split_ratio=2.0,
                                  min_split_items=16, drain_s=0.1e-3),
    ), record_results=record)


# -- what one run looked like, builder-independent ---------------------------

@dataclass
class Outcome:
    """The user-visible outcome of one finished run."""

    attempted: int
    completed: int
    #: Requests that ended in an error (timeout, offload error); the
    #: rest of ``attempted - completed`` was refused by admission control.
    errors: int
    #: Simulated seconds the throughput is taken over.
    sim_seconds: float
    #: Simulated latency of every completed request, seconds (closed
    #: loop: request latency; open loop: sojourn from scheduled arrival).
    latencies: List[float]


def outcome_of(runner, result) -> Outcome:
    if isinstance(runner, TrafficRunner):
        return Outcome(result.arrivals, result.completed, result.failed,
                       result.duration_s, list(runner.sojourn.samples))
    latencies = [s for stats in runner.client_stats
                 for s in stats.latency.samples]
    issued = runner.config.total_requests
    return Outcome(issued, result.total_requests,
                   issued - result.total_requests, result.elapsed_s,
                   latencies)


# -- oracle and conservation checks ------------------------------------------

def client_streams(config: ExperimentConfig):
    """Regenerate every closed-loop client's request stream."""
    workload = make_workload(
        config.workload_kind, scale_spec=config.scale,
        n_requests=config.requests_per_client,
        insert_fraction=config.insert_fraction, queries=config.queries,
    )
    rngs = RngRegistry(config.seed)
    return [
        workload(i, rngs.fork(f"client-{i}").stream("workload"))
        for i in range(config.n_clients)
    ]


def oracle_tree(runner):
    config = runner.config
    return bulk_load(uniform_dataset(config.dataset_size, seed=config.seed),
                     max_entries=config.max_entries)


def total_results(stats_list) -> int:
    return sum(int(stats.results_received) for stats in stats_list)


def check_search_totals(runner, result) -> str:
    """Search-only K=1: the clients together received exactly as many
    results as the single-tree oracle returns for their streams."""
    oracle = oracle_tree(runner)
    expected = sum(oracle.count_intersections(request.rect)
                   for stream in client_streams(runner.config)
                   for request in stream)
    got = total_results(runner.client_stats)
    _require(got == expected,
             f"clients received {got} results, oracle says {expected}")
    return f"results {got} = oracle {expected}"


def hybrid_sandwich(streams, initial_tree, final_tree, results_received: int,
                    inserts_served: int, items_held: int,
                    dataset_size: int) -> str:
    """The write-bearing check: every insert landed exactly once and the
    result total lies between the oracle totals over the initial and the
    final tree (a search sees some prefix of the concurrent inserts)."""
    inserts = [r for stream in streams for r in stream if r.op == OP_INSERT]
    searches = [r for stream in streams for r in stream if r.op == OP_SEARCH]
    _require(inserts_served == len(inserts),
             f"{inserts_served} inserts served, {len(inserts)} issued")
    _require(items_held == dataset_size + len(inserts),
             f"server holds {items_held} items, expected "
             f"{dataset_size} + {len(inserts)}")
    try:
        final_tree.validate()
    except AssertionError as exc:
        raise CheckFailed(f"final tree is invalid: {exc}") from exc
    for request in inserts:
        _require(request.data_id in final_tree.search(request.rect).data_ids,
                 f"inserted item {request.data_id} not found afterwards")
    low = sum(initial_tree.count_intersections(r.rect) for r in searches)
    high = sum(final_tree.count_intersections(r.rect) for r in searches)
    _require(low <= results_received <= high,
             f"result total {results_received} outside oracle sandwich "
             f"[{low}, {high}]")
    return (f"{len(inserts)} inserts served once, "
            f"{low} <= {results_received} <= {high}")


def check_hybrid(runner, result) -> str:
    return hybrid_sandwich(
        client_streams(runner.config), oracle_tree(runner),
        runner.server.tree, total_results(runner.client_stats),
        result.inserts_served, runner.stack.items_held(),
        runner.config.dataset_size,
    )


def _aggregate_rects(runner, aggregate_id: int, count: int) -> List[Rect]:
    """The first ``count`` query rects aggregate ``aggregate_id`` drew."""
    rng = RngRegistry(runner.config.seed).fork(
        f"aggregate-{aggregate_id}").stream("workload")
    scale_gen = scale_generator(runner.config.scale)
    return [scale_gen.next_rect(rng) for _ in range(count)]


def generator_lag_s(runner) -> float:
    """How late the open-loop generator ran, worst case, in simulated
    seconds: recorded arrival minus the regenerated schedule."""
    worst = 0.0
    schedules = {}
    for job in runner.mux.finished_jobs:
        schedule = schedules.get(job.aggregate_id)
        if schedule is None:
            generator = aggregate_generator(
                runner.traffic,
                RngRegistry(runner.config.seed).fork(
                    f"aggregate-{job.aggregate_id}"))
            schedule = schedules[job.aggregate_id] = generator.schedule(
                runner.traffic.duration_s)
        worst = max(worst, job.t_arrival - schedule[job.seq][0])
    return worst


def check_open_loop(runner, result) -> str:
    """Conservation always; with nothing shed also the result total; on a
    recorded run every completed search against the single-tree oracle."""
    shed = (result.shed_window + result.shed_watermark
            + result.shed_admission)
    _require(result.arrivals == result.completed + result.failed + shed,
             f"{result.arrivals} arrivals != {result.completed} completed "
             f"+ {result.failed} failed + {shed} shed")
    notes = [f"arrivals {result.arrivals} = completed + failed + shed"]
    oracle = None
    if shed == 0 and result.failed == 0:
        oracle = oracle_tree(runner)
        expected = sum(
            oracle.count_intersections(rect)
            for agg in runner.aggregates
            for rect in _aggregate_rects(runner, agg.aggregate_id,
                                         agg.arrivals))
        got = total_results(runner.session_stats)
        _require(got == expected,
                 f"sessions received {got} results, oracle says {expected}")
        notes.append(f"results {got} = oracle {expected}")
    if runner.mux.record:
        oracle = oracle or oracle_tree(runner)
        checked = 0
        for job in runner.mux.finished_jobs:
            if job.status != OK:
                continue
            reply = job.results
            matches = getattr(reply, "results", reply)
            _require(getattr(reply, "complete", True),
                     f"job {job.aggregate_id}/{job.seq} answered partially")
            got_ids = sorted(data_id for _rect, data_id in matches)
            want_ids = sorted(oracle.search(job.request.rect).data_ids)
            _require(got_ids == want_ids,
                     f"job {job.aggregate_id}/{job.seq} differs from oracle")
            checked += 1
        _require(checked == result.completed,
                 f"recorded {checked} of {result.completed} completions")
        lag = generator_lag_s(runner)
        _require(lag <= 1e-12, f"open-loop generator ran {lag} s late")
        notes.append(f"{checked} searches = oracle, generator lag {lag} s")
    return "; ".join(notes)


def check_shard_skew(runner, result) -> str:
    """Migration loses and duplicates nothing; on a recorded run every
    routed read equals the single-tree oracle."""
    config = runner.config
    _require(result.total_requests == config.total_requests,
             f"{result.total_requests} of {config.total_requests} completed")
    held = sum(runner.shard_occupancy())
    _require(held == config.dataset_size,
             f"shards hold {held} items after migration, dataset has "
             f"{config.dataset_size}")
    try:
        runner.live_map.check_invariants()
    except ValueError as exc:
        raise CheckFailed(f"shard map is invalid: {exc}") from exc
    notes = [f"{held} items conserved across "
             f"{int(runner.rebalance_stats.migrations_completed)} migrations"]
    if any(router.record for router in runner.routers):
        summary = verify_routed_results(runner)
        _require(summary.ok and summary.checked == config.total_requests,
                 "routed results differ from oracle: "
                 + "; ".join(summary.describe()))
        notes.append(f"{summary.checked} routed reads = oracle")
    return "; ".join(notes)


# -- the table ---------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    #: "closed" or "open".
    loop: str
    #: Rate or client count, for the glossary.
    load: str
    why: str
    build: Callable
    check: Callable
    #: Sub-seeds a full-length run (``RUN_SECONDS``) pools.  Sized on the
    #: 2-core reference box so a full run takes 10-20 s; the work done is
    #: a function of the arguments, never of how fast the host happens
    #: to be.  The write- and migration-bearing workloads pool more:
    #: their tail latency swings by tens of percent between seeds.
    pool: int


WORKLOADS = (
    Workload(
        "closed-search", "closed", "48 clients x 210 searches, K=1",
        "Paper headline point (Fig 10) past Algorithm 1's threshold: "
        "server CPU ~0.87, ~20% offloaded; shard and traffic idle, so it "
        "is the bypass workload for router/mux changes.",
        _closed_search, check_search_totals, 3),
    Workload(
        "closed-hybrid", "closed",
        "48 clients x 210 requests, 90/10 search/insert, K=1",
        "Writes beside reads on the same rtree/server/client code: "
        "splits, version bumps, torn reads and node-cache invalidation, "
        "so a read-path gain that costs writes shows here.",
        _closed_hybrid, check_hybrid, 4),
    Workload(
        "closed-offload-cache", "closed",
        "32 clients x 320 searches, K=1, always offload",
        "Client-side traversal only: server CPU stays 0, server NIC "
        "saturates, node cache hit ratio ~0.99; a fast-messaging or "
        "server-CPU change must not move it.",
        _closed_offload_cache, check_search_totals, 3),
    Workload(
        "open-shard", "open", "Poisson 300000/s for 0.035 sim-s, K=4",
        "The deployment a user would run at ~75% of its knee: traffic "
        "and shard sit on every request; mux/router churn and queueing "
        "show in latency below saturation.",
        _open_shard(300_000.0, 0.035), check_open_loop, 3),
    Workload(
        "open-shard-overload", "open",
        "Poisson 600000/s for 0.027 sim-s, K=4",
        "~150% of the knee: throughput is the plateau capacity, about a "
        "third of arrivals are shed at the mux watermark, latency is "
        "pinned by the queue bound; admission and back-pressure.",
        _open_shard(600_000.0, 0.027), check_open_loop, 3),
    Workload(
        "closed-shard-skew", "closed",
        "8 clients x 1250 searches of a 400-rect hot set, K=4, rebalance on",
        "The elastic plane doing real work: splits, live migration, "
        "epoch re-scatter and dedup; the only workload where "
        "RebalanceController is live.",
        _closed_shard_skew, check_shard_skew, 4),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def sub_seeds(seed: int, seconds: float, workload: Workload) -> List[int]:
    """The experiment seeds one run of ``--seed seed --seconds seconds``
    measures: ``workload.pool`` of them at full length, fewer for a
    shorter look; 1000 apart keeps neighbouring ``--seed`` values
    disjoint."""
    count = max(1, round(workload.pool * seconds / RUN_SECONDS))
    return [seed * 1000 + i for i in range(count)]


def run_once(workload: Workload, seed: int, fraction: float = 1.0,
             record: bool = False):
    """Build and run one deployment; returns ``(runner, result,
    setup_s, run_s)`` in ``time.process_time()`` CPU seconds."""
    start = time.process_time()
    runner = workload.build(seed, fraction, record)
    built = time.process_time()
    result = runner.run()
    return runner, result, built - start, time.process_time() - built
