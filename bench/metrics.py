"""Every metric the scoreboard reports, declared once.

``BENCHMARK.json`` (checked against these tables by ``test_bench.py``),
the glossary in ``bench/README.md`` and ``bench/check.py`` all read the
names, units, directions and bounds from here.

Two clocks, named in every metric: ``sim_*`` (and the two shares) are
*simulated time* — what the modelled cluster would do, a pure function
of the seed; ``host_*``, ``setup_s`` and ``peak_rss_mb`` are *host cost*
— what the pure-Python simulator costs us to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from baskets import BASKET_UNITS
from hostprof import PACKAGES


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    clock: str              # "host" or "sim"
    better: str             # "lower" or "higher"
    #: Share of the parent's median by which the metric may worsen
    #: across *different* seeds before the driver rejects a change
    #: (``BENCHMARK.json``); None for a metric that is zero on some
    #: workload and so cannot carry a relative bound.
    bound: Optional[float]
    #: Bound for a same-seed comparison (``bench/check.py``), where the
    #: simulated metrics repeat exactly: ``(kind, amount)`` with kind
    #: "rel" (share of the base) or "abs".
    same_seed: Tuple[str, float]
    definition: str


END_TO_END = (
    EndToEnd("setup_s", "s", "host", "lower", 0.25, ("rel", 0.15),
             "process_time() to construct the runner (dataset, bulk load, "
             "partition, stacks, sessions); median of three builds per "
             "sub-seed"),
    EndToEnd("host_us_per_req", "us", "host", "lower", 0.25, ("rel", 0.10),
             "process_time() of run() / completed requests; minimum over "
             "the run's sub-seeds"),
    EndToEnd("peak_rss_mb", "MB", "host", "lower", 0.10, ("rel", 0.10),
             "ru_maxrss after the first full-size build + run, before "
             "any oracle is built"),
    EndToEnd("sim_kops", "Kops", "sim", "higher", 0.20, ("rel", 0.01),
             "completed / simulated seconds, pooled over sub-seeds "
             "(closed: elapsed; open: the offered window)"),
    EndToEnd("sim_p50_us", "us", "sim", "lower", 0.20, ("rel", 0.01),
             "median latency of the pooled sample (closed: request "
             "latency; open: sojourn from scheduled arrival)"),
    EndToEnd("sim_p99_us", "us", "sim", "lower", 0.25, ("rel", 0.03),
             "99th percentile of the same sample"),
    EndToEnd("ok_share", "ratio", "sim", "higher", 0.08, ("abs", 0.001),
             "completed / attempted = 1 - fail_share; reported instead of "
             "fail_share because a gated metric may not be 0"),
)

#: User-visible metrics that are exactly 0 on some workload, or swing by
#: more than the largest allowed bound from seed to seed; reported and
#: compared at a fixed seed, never gated across seeds.
UNGATED = (
    EndToEnd("sim_p999_us", "us", "sim", "lower", None, ("rel", 0.03),
             "99.9th percentile of the pooled sample (>= 30 samples "
             "beyond it at full length)"),
    EndToEnd("fail_share", "ratio", "sim", "lower", None, ("abs", 0.001),
             "(failed + shed at aggregate window, mux watermark/bucket, "
             "server guard) / attempted"),
    EndToEnd("slo_miss_share", "ratio", "sim", "lower", None,
             ("abs", 0.001),
             "share of attempted requests that failed, were shed, or "
             "completed later than the fixed limit of 500 us"),
)


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    layer: str
    source: str
    #: Which end-to-end metric it should move, on which workload.
    moves: str


_HOST_ALL = "host_us_per_req on every workload; sim_* must not move"
_KOPS_CPU = ("sim_kops on closed-search and open-shard-overload; none on "
             "closed-offload-cache")
_CACHE = ("sim_kops, sim_p50_us on closed-offload-cache; the 20% "
          "offloaded share on closed-search")
_TORN = "sim_p99_us, sim_p999_us on closed-hybrid only"
_SCATTER = ("sim_p99_us on open-shard (a scatter waits for its slowest "
            "shard); host_us_per_req on the three sharded workloads; "
            "none on K=1")
_ELASTIC = "sim_kops, sim_p99_us on closed-shard-skew only"
_QUEUE = ("sim_p99_us, slo_miss_share on open-shard (queueing rises "
          "before throughput stops rising)")
_ADMIT = "fail_share/ok_share, sim_kops on open-shard-overload"

COUNTS = (
    Layer("sim.events", "count", "lower", "sim",
          "Simulator._seq (private read)", _HOST_ALL),
    Layer("sim.events_per_req", "count", "lower", "sim",
          "Simulator._seq / completed",
          _HOST_ALL + "; most on closed-shard-skew (66 events per "
          "request) and the open-loop workloads (50)"),
    Layer("hw.cpu_util_mean", "ratio", "lower", "hw",
          "host.cpu.utilization(), mean over stacks", _KOPS_CPU),
    Layer("hw.cpu_util_max", "ratio", "lower", "hw",
          "host.cpu.utilization(), hottest shard", _ELASTIC),
    Layer("net.server_gbps", "Gbps", "lower", "net",
          "network.server_bandwidth_gbps(), summed",
          "sim_kops on closed-offload-cache (server NIC saturates)"),
    Layer("net.server_bw_util", "ratio", "lower", "net",
          "server_gbps / fabric bandwidth",
          "sim_kops on closed-offload-cache"),
    Layer("transport.server_nic_wqes_per_req", "count", "lower",
          "transport", "host.nic.ops_processed / completed", _HOST_ALL),
    Layer("msg.req_ring_hwm", "B", "lower", "msg",
          "request_ring.high_watermark, max over connections",
          "sim_p99_us on open-shard-overload (ring back-pressure)"),
    Layer("msg.resp_ring_hwm", "B", "lower", "msg",
          "response_ring.high_watermark, max over connections",
          "sim_p99_us where large results segment"),
    Layer("msg.ring_bytes_per_req", "B", "lower", "msg",
          "ring bytes_sent / completed", "sim_kops on closed-search"),
    Layer("server.fm_handled_per_req", "count", "lower", "server",
          "fm_server.requests_handled / completed", _KOPS_CPU),
    Layer("server.wakeups_per_req", "count", "lower", "server",
          "server_channel.wakeups / completed",
          "sim_p50_us on closed-search; host_us_per_req"),
    Layer("server.shed", "count", "lower", "server",
          "fm_server.requests_shed", "fail_share; 0 on every workload"),
    Layer("server.heartbeats_sent", "count", "lower", "server",
          "heartbeats.beats_sent", "host_us_per_req on catfish workloads"),
    Layer("rtree.results_per_search", "count", "higher", "rtree",
          "results_received / searches executed",
          "workload property; moves only if results are lost"),
    Layer("rtree.items_final", "count", "higher", "rtree",
          "stack.items_held(), summed",
          "conservation: dataset + inserts on closed-hybrid"),
    Layer("client.offload_fraction", "ratio", "higher", "client",
          "offloaded / (offloaded + fast messaging)", _KOPS_CPU),
    Layer("client.chunks_per_offload", "count", "lower", "client",
          "engine.chunks_fetched / offloaded", _CACHE),
    Layer("client.meta_reads_per_offload", "count", "lower", "client",
          "engine.meta_reads / offloaded", _CACHE),
    Layer("client.torn_retries", "count", "lower", "client",
          "stats.torn_retries", _TORN),
    Layer("client.search_restarts", "count", "lower", "client",
          "stats.search_restarts", _TORN),
    Layer("client.cache_hit_ratio", "ratio", "higher", "client",
          "cache.hits / (hits + misses)", _CACHE),
    Layer("client.cache_invalidations", "count", "lower", "client",
          "cache.invalidations",
          "sim_p99_us on closed-hybrid (the cost of writes)"),
    Layer("client.busy_observations", "count", "lower", "client",
          "policy.busy_observations", _KOPS_CPU),
    Layer("client.backoff_extensions", "count", "lower", "client",
          "policy.backoff_extensions", _KOPS_CPU),
    Layer("shard.occupancy_max_share", "ratio", "lower", "shard",
          "max items_held / total", _ELASTIC),
    Layer("shard.subqueries_per_req", "count", "lower", "shard",
          "router.subqueries_issued / queries_routed", _SCATTER),
    Layer("shard.pruned_per_req", "count", "higher", "shard",
          "router.shards_pruned / queries_routed", _SCATTER),
    Layer("shard.rescatters", "count", "lower", "shard",
          "router.epoch_rescatters", _ELASTIC),
    Layer("shard.dup_merged", "count", "lower", "shard",
          "router.duplicates_merged", _ELASTIC),
    Layer("shard.splits", "count", "higher", "shard",
          "rebalance.splits", _ELASTIC),
    Layer("shard.migrations", "count", "higher", "shard",
          "rebalance.migrations_completed", _ELASTIC),
    Layer("shard.items_migrated", "count", "lower", "shard",
          "rebalance.items_migrated", _ELASTIC),
    Layer("shard.epoch_bumps", "count", "lower", "shard",
          "rebalance.epoch_bumps", _ELASTIC),
    Layer("traffic.mux_wait_p50_us", "us", "lower", "traffic",
          "job.t_start - job.t_arrival", _QUEUE),
    Layer("traffic.mux_wait_p99_us", "us", "lower", "traffic",
          "job.t_start - job.t_arrival", _QUEUE),
    Layer("traffic.service_p50_us", "us", "lower", "traffic",
          "job.t_done - job.t_start", _ADMIT),
    Layer("traffic.service_p99_us", "us", "lower", "traffic",
          "job.t_done - job.t_start", _ADMIT),
    Layer("traffic.shed_window", "count", "lower", "traffic",
          "aggregate.shed_window", _ADMIT),
    Layer("traffic.shed_watermark", "count", "lower", "traffic",
          "mux.shed_watermark", _ADMIT),
    Layer("traffic.users_touched", "count", "higher", "traffic",
          "aggregate.users_touched", "workload property"),
    Layer("traffic.gen_lag_max_us", "us", "lower", "traffic",
          "recorded arrival - regenerated schedule",
          "must stay 0: the open-loop generator cannot fall behind"),
)

_PROF_MOVES = {
    "shard": "host_us_per_req on the sharded workloads; ~0 on K=1",
    "traffic": "host_us_per_req on the open-loop workloads; 0 on closed",
}

PROFILE = tuple(
    layer
    for pkg in PACKAGES
    for layer in (
        Layer(f"prof.{pkg}.self_share", "ratio", "lower", pkg,
              "cProfile tottime, built-ins charged to the caller",
              _PROF_MOVES.get(pkg, _HOST_ALL)),
        Layer(f"prof.{pkg}.calls_per_req", "count", "lower", pkg,
              "cProfile call count of the package's functions / completed",
              _PROF_MOVES.get(pkg, _HOST_ALL)),
    )
) + (
    Layer("prof.overhead_x", "x", "lower", "harness",
          "traced / untraced host_us_per_req of the same sub-seed",
          "none: the cost of tracing itself"),
)

BASKETS = tuple(
    Layer(name, unit, "higher", name.split(".")[1],
          "bench/baskets.py, best of 3",
          "host_us_per_req where prof.%s.self_share is large; never sim_*"
          % name.split(".")[1])
    for name, unit in BASKET_UNITS.items()
)

TAIL = tuple(
    Layer(f"tail.{m.name}", m.unit, m.better, "end-to-end",
          m.definition + " (traced sub-seed only)",
          "itself: a user-visible metric that cannot carry a "
          "cross-seed bound")
    for m in UNGATED
)

PER_LAYER = COUNTS + PROFILE + BASKETS + TAIL
