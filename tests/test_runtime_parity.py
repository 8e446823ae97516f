"""Runtime-layer parity: goldens, builder shape, and policy wiring.

The runtime refactor (ServerStack / PathPolicy / SessionFactory) and the
one-``Deployment`` refactor after it carry a hard determinism contract:
RNG stream names and draw order are preserved, so every scheme must
reproduce the result fingerprints and chaos fingerprints captured
*before* them, bit-identically.  The GOLDEN_* values below are those
captures — do not regenerate them to make a failing test pass; a
mismatch means the simulation's behaviour changed.
"""

import ast
import dataclasses
import hashlib
import math
import pathlib
import random

import pytest

from repro.chaos import SCENARIOS, Scenario, run_scenario
from repro.client.adaptive import AdaptiveParams, most_recent_utilization
from repro.client.base import ClientStats
from repro.client.fm_client import FmSession
from repro.client.predictors import most_recent
from repro.client.resilience import BreakerParams, RetryPolicy
from repro.cluster.builder import ExperimentRunner, run_experiment
from repro.cluster.config import ExperimentConfig, KvMix, RebalanceConfig
from repro.cluster.deployment import Deployment
from repro.cluster.results import RunResult
from repro.cluster.schemes import SCHEMES
from repro.hw.host import Host
from repro.rtree.geometry import Rect
from repro.runtime import (
    Algorithm1Policy,
    AlwaysFmPolicy,
    AlwaysOffloadPolicy,
    BanditPolicy,
    PolicySession,
    SessionFactory,
)
from repro.shard.deploy import ShardedExperimentRunner
from repro.traffic.config import TrafficConfig
from repro.traffic.harness import TrafficRunner


def result_fingerprint(result: RunResult) -> str:
    """A 16-hex digest over every numeric field of one run.

    Two runs with the same fingerprint produced bit-identical simulated
    timing and counters — the regression oracle behind the runtime-layer
    determinism contract (floats are hashed via ``repr``, i.e. exactly,
    not up to rounding).  The metrics snapshot document is deliberately
    excluded so purely observational additions don't invalidate goldens.
    """
    fields = (
        result.scheme, result.fabric, result.n_clients,
        result.total_requests, result.elapsed_s, result.throughput_kops,
        result.mean_latency_us, result.p50_latency_us, result.p99_latency_us,
        result.mean_search_latency_us, result.server_cpu_utilization,
        result.server_bandwidth_gbps, result.server_bandwidth_utilization,
        result.offload_fraction, result.torn_retries, result.search_restarts,
        result.heartbeats_sent, result.heartbeats_dropped,
        result.searches_served_by_server, result.inserts_served,
    )
    parts = []
    for value in fields:
        if isinstance(value, float):
            parts.append("nan" if math.isnan(value) else repr(value))
        else:
            parts.append(repr(value))
    digest = hashlib.sha256("|".join(parts).encode("utf-8"))
    return digest.hexdigest()[:16]


# -- golden fingerprints (captured at the pre-refactor seed commit) -------

GOLDEN_RUNS = {
    "catfish": "9a26b616d136b426",
    "catfish+hybrid": "8036cd15fa2004ec",
    "catfish-bandit": "8e13341a63b212cc",
    "catfish-ewma": "e661c415a0880bc4",
    "catfish-polling": "1d3a5247fa6d859f",
    "catfish-sharded": "ac277f20b080e03e",
    "catfish-sharded+hybrid": "6c50012eaa042c7f",
    "catfish-single-issue": "e524738d2309c826",
    "catfish-trend": "b5d46f6cc58f3930",
    "fast-messaging": "2083873c011f1bbe",
    "fast-messaging-event": "8e1b1664b1c8733f",
    "rdma-offloading": "750b3cfc938a4495",
    "rdma-offloading-multi": "c225a9f60cd7fc87",
    "tcp": "0521d1b31a63d5d7",
}

#: Every chaos scenario's pin: name -> (requests per client the pin was
#: captured at, fingerprint).  The other sizing is common to all:
#: 2 clients over 1000 items at seed 0.
#:
#: The nine single-server pins were re-captured once, when the hand-built
#: ``_Cluster`` dissolved into ``Deployment``: it named Algorithm 1's
#: back-off stream ``adaptive`` where a deployment names it ``backoff``,
#: and that name is the only input that differs — with it aliased back,
#: all nine previous digests (``a0c84b80ec25e8f1`` for chaos-combo, ...;
#: see this table's history) reproduced through the one runner, in the
#: commit before the re-pin.
#:
#: Every row but flash-crowd (fast-messaging-event, no Algorithm 1) was
#: re-pinned once more when Algorithm 1 gained its latency guard: once a
#: fresh heartbeat is consumed, catfish and catfish-sharded clients
#: offload the reads lines 5-23 send to the server whenever offloading
#: measured faster, which changes paths, server CPU time, latencies,
#: retries and every completion time.  Was -> now: chaos-combo
#: 13deb819b0041a32 -> 9bee4d0d1a719a1c, heartbeat-blackout
#: 084c81e27f2444c6 -> 0a7837121ffe41b8, latency-spike d4aa2e334ac8e507
#: -> 371202397f3ad66b, link-loss 02bae078af460c23 -> 8b713d18592c7e09,
#: migration-racing-writes 29f1fd4828c94ef9 -> 51d3cc45e2688931,
#: nic-read-stall bf09582663aab900 -> 1d0a216ae2312866, overload-shed
#: ac2207ff8a41daca -> b79892532caff414, rebalance-under-fault
#: ca749b88479b0b11 -> 59d002c695f364ab, shard-loss c09891cfab5165d1 ->
#: 3d2b9eff2d87c515, slow-client 5b84965a96fcbbf6 -> 8172f25cde205e08,
#: worker-crash a783fcc0bff5186f -> ff7ca3e2a446153a, write-storm
#: 98eec06d992bd46f -> a198ee972bf70b40.  The scheme fingerprints and
#: GOLDEN_ROUTED_REBALANCE did not move: their runs end before the first
#: 10 ms heartbeat interval elapses, so no client ever consumes a
#: heartbeat and the guard never runs.
GOLDEN_CHAOS = {
    "chaos-combo": (150, "9bee4d0d1a719a1c"),
    # The scenario pins its own deployment shape through its tweaks, so
    # this digest is independent of the sizing overrides.
    # Re-pinned (was 95d90656ca53e494) when the mux began carrying the
    # searches queued behind a job as one batch: the spike's backlog now
    # rides as batched fast-messaging requests, which changes service
    # times, retries, server sheds and every job's completion time.
    "flash-crowd": (150, "efde6075d342df05"),
    "heartbeat-blackout": (150, "0a7837121ffe41b8"),
    "latency-spike": (150, "371202397f3ad66b"),
    "link-loss": (150, "8b713d18592c7e09"),
    # The two rebalance rows and GOLDEN_ROUTED_REBALANCE were re-pinned
    # once when a migration started handing reads over at the end of its
    # drain instead of the end of its cleanup (b4222c4c38b1bacc and
    # 4da09f454ef412f4 before): the source's covers drop the moved items
    # one rebuild earlier, which changes scatter sets, splits and
    # latencies.  They were re-pinned once more when a migration began
    # copying and deleting a tile as one server op per source leaf
    # (13e6c110317854fe and 68ac406b074036c2 before): a run of items is
    # charged one parse and one visit per distinct node instead of one
    # request per item, which changes server CPU time, hence latencies,
    # load samples and splits.  They were re-pinned a third time when a
    # migration began grafting a run as packed leaves at the destination
    # and unlinking a whole source leaf at the source (aad3feaa3f1b05aa
    # and c5cc98b5c5fa085d before): no per-item insert_write, fewer node
    # visits and a differently shaped destination tree, which change
    # server CPU time, search paths, latencies and splits.  They were
    # re-pinned a fourth time when every deployment began sharing one
    # shard map whose servers refuse writes into tiles they do not hold
    # (91a47e9caf67fce9 and a54cd845762418d5 before): the source leaves
    # a migrated tile's reads at the cut-over instead of at the end of
    # its drain, no summary rebuild bumps the epoch, and the cleanup
    # deletes the source's tile contents of the cut-over instant, which
    # change scatter sets, re-scatters, server CPU time, latencies and
    # splits.  Every other pin is unchanged all four times.
    # migration-racing-writes alone was re-pinned once more when its
    # workload switched from hybrid to churn, so deletes race the
    # migrations too (98e034e9324f01cd before): a different request
    # stream, hence different records, counters and timing.
    "migration-racing-writes": (120, "51d3cc45e2688931"),
    "nic-read-stall": (150, "1d0a216ae2312866"),
    "overload-shed": (150, "b79892532caff414"),
    "rebalance-under-fault": (120, "59d002c695f364ab"),
    "shard-loss": (150, "3d2b9eff2d87c515"),
    "slow-client": (150, "8172f25cde205e08"),
    "worker-crash": (150, "ff7ca3e2a446153a"),
    # The one scenario that exhausts offload read retries, and the one
    # row that tightens the offload budgets (4 read retries / 3
    # restarts): with the default 8/8 the other eight single-server
    # digests are unchanged and only this one moves.
    "write-storm": (150, "a198ee972bf70b40"),
}

#: What each scenario checks and counts, captured at the same sizing as
#: ``GOLDEN_CHAOS`` before the chaos harnesses were folded into one
#: runner: name -> (invariant names in report order, sorted counter
#: keys).  Asserted beside the fingerprint so a refactor of the harness
#: cannot silently drop a check or a counter.
_PLAIN_CHECKS = ("finished-in-time", "completed", "oracle-match",
                 "exactly-once", "bounded-retries", "throughput-recovered")
_PLAIN_COUNTERS = (
    "beats-blacked-out", "breaker-trips", "client-stalls",
    "duplicates-suppressed", "failovers", "latency-injected", "nic-stalls",
    "packets-dropped", "requests-shed", "workers-crashed",
    "workers-restarted", "write-storms",
)
_ROUTER_COUNTERS = (
    "duplicates-merged", "partial-results", "queries-routed",
    "shard-offload-errors", "shard-skips", "shard-timeouts",
    "shards-pruned", "subqueries-issued",
)
_ELASTIC_COUNTERS = _ROUTER_COUNTERS + (
    "epoch-rescatters", "map-epoch", "rebalance-cycles",
    "rebalance-epoch-bumps", "rebalance-items-migrated",
    "rebalance-merges", "rebalance-migrations-completed",
    "rebalance-migrations-started", "rebalance-splits",
    "rebalance-tiles-reassigned", "rescattered-subqueries", "tiles",
)


def _fired(*keys):
    return tuple(f"fault-fired:{key}" for key in keys)


EXPECTED_INVARIANTS = {
    "chaos-combo": (
        _PLAIN_CHECKS + _fired("packets-dropped", "beats-blacked-out",
                               "workers-crashed"),
        _PLAIN_COUNTERS),
    "flash-crowd": (
        ("finished-in-time", "conservation", "oracle-match")
        + _fired("spike-arrivals", "client-shed", "server-shed")
        + ("no-shed-before-spike", "shedding-stopped",
           "throughput-recovered"),
        ("arrivals", "completed", "failed", "retries",
         "server-requests-shed", "shed-admission", "shed-watermark",
         "shed-window")),
    "heartbeat-blackout": (
        _PLAIN_CHECKS + _fired("beats-blacked-out"), _PLAIN_COUNTERS),
    "latency-spike": (
        _PLAIN_CHECKS + _fired("latency-injected"), _PLAIN_COUNTERS),
    "link-loss": (
        _PLAIN_CHECKS + _fired("packets-dropped"), _PLAIN_COUNTERS),
    "migration-racing-writes": (
        ("finished-in-time", "completed", "migrations-completed",
         "writes-raced-migration", "conservation-exact",
         "deletes-stay-deleted", "reads-exactly-once", "map-invariants",
         "tree-invariants"),
        tuple(sorted(_ELASTIC_COUNTERS + (
            "acked-inserts", "inserts-in-migration-window")))),
    "nic-read-stall": (
        _PLAIN_CHECKS + _fired("nic-stalls"), _PLAIN_COUNTERS),
    "overload-shed": (
        _PLAIN_CHECKS + _fired("workers-crashed", "requests-shed"),
        _PLAIN_COUNTERS),
    "rebalance-under-fault": (
        ("finished-in-time", "completed", "complete-results-exact",
         "degraded-results-sound", "splits-fired", "migrations-completed",
         "items-conserved", "map-invariants", "tree-invariants")
        + _fired("packets-dropped"),
        tuple(sorted(_ELASTIC_COUNTERS + ("packets-dropped",)))),
    "shard-loss": (
        ("finished-in-time", "completed", "complete-results-exact",
         "degraded-results-correct", "exactly-once", "partials-observed",
         "throughput-recovered")
        + _fired("shards-lost", "shards-restored", "workers-crashed"),
        tuple(sorted(_ROUTER_COUNTERS + (
            "beats-blacked-out", "shards-lost", "shards-restored",
            "workers-crashed", "workers-restarted")))),
    "slow-client": (
        _PLAIN_CHECKS + _fired("client-stalls"), _PLAIN_COUNTERS),
    "worker-crash": (
        _PLAIN_CHECKS + _fired("workers-crashed", "workers-restarted",
                               "duplicates-suppressed"),
        _PLAIN_COUNTERS),
    "write-storm": (
        _PLAIN_CHECKS + _fired("write-storms", "breaker-trips",
                               "failovers"),
        _PLAIN_COUNTERS),
}

#: The §VI extension's pins: (index, scheme) -> fingerprint, captured
#: while the KV harness still hand-built its own cluster.  The two
#: served-op counters are masked: that harness reported them as hard 0,
#: the shared assembler reports the KV service's real counts.  The two
#: catfish rows were re-pinned (btree 52574c51a374b0f0, cuckoo
#: f1404d0e7a4cfd45 before) when Algorithm 1 gained its latency guard:
#: at idle their clients now offload 60 % and 24 % of requests instead
#: of none, which changes every latency and the server's work.
GOLDEN_KV = {
    ("btree", "fast-messaging"): "77bab29ce3b44e36",
    ("btree", "rdma-offloading"): "9c1c751d30880370",
    ("btree", "catfish"): "ff8cc1f36c9d9a2a",
    ("btree", "catfish-bandit"): "e7e9b6cdb416c050",
    ("cuckoo", "fast-messaging"): "a9393e3c6c29ea05",
    ("cuckoo", "rdma-offloading"): "0f181bcfc491917e",
    ("cuckoo", "catfish"): "7f004a72feb6e33f",
    ("cuckoo", "catfish-bandit"): "e4a051afcb428692",
}

#: Scheme offload mode → expected policy type (the session type is
#: always exactly ``PolicySession``).
EXPECTED_SHAPE = {
    "never": AlwaysFmPolicy,
    "always": AlwaysOffloadPolicy,
    "adaptive": Algorithm1Policy,
    "bandit": BanditPolicy,
}


def golden_config(scheme, workload="search", **overrides):
    """The exact configuration the goldens were captured under."""
    fabric = "eth-1g" if SCHEMES[scheme].transport == "tcp" else "ib-100g"
    base = dict(
        scheme=scheme, fabric=fabric, n_clients=4, requests_per_client=40,
        dataset_size=2000, server_cores=4, workload_kind=workload, seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# -- fingerprint identity across the refactor ----------------------------

@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_scheme_fingerprint_matches_pre_refactor_golden(scheme):
    result = run_experiment(golden_config(scheme))
    assert result_fingerprint(result) == GOLDEN_RUNS[scheme]


@pytest.mark.parametrize("scheme", ["catfish", "catfish-sharded"])
def test_hybrid_workload_fingerprint_matches_golden(scheme):
    # Hybrid exercises the write path (always fast messaging) through
    # the policy layer.
    result = run_experiment(golden_config(scheme, workload="hybrid"))
    assert result_fingerprint(result) == GOLDEN_RUNS[scheme + "+hybrid"]


def test_every_chaos_scenario_is_pinned():
    assert sorted(GOLDEN_CHAOS) == sorted(SCENARIOS)
    assert sorted(EXPECTED_INVARIANTS) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(GOLDEN_CHAOS))
def test_chaos_fingerprint_matches_pre_refactor_golden(name):
    requests_per_client, fingerprint = GOLDEN_CHAOS[name]
    report = run_scenario(name, seed=0, n_clients=2,
                          requests_per_client=requests_per_client,
                          dataset_size=1000)
    assert report.ok, report.failures
    assert report.fingerprint() == fingerprint
    invariant_names, counter_keys = EXPECTED_INVARIANTS[name]
    assert tuple(n for n, _ok, _d in report.invariants) == invariant_names
    assert tuple(sorted(report.counters)) == counter_keys


@pytest.mark.parametrize("index,scheme", sorted(GOLDEN_KV))
def test_kv_fingerprint_matches_pre_fold_golden(index, scheme):
    mix = (KvMix(get_fraction=0.6, scan_fraction=0.3)
           if index == "btree" else KvMix())
    result = run_experiment(ExperimentConfig(
        index=index, scheme=scheme, n_clients=4, requests_per_client=40,
        dataset_size=3000, server_cores=4, heartbeat_interval=0.2e-3,
        seed=2, kv=mix))
    masked = dataclasses.replace(result, searches_served_by_server=0,
                                 inserts_served=0)
    assert result_fingerprint(masked) == GOLDEN_KV[index, scheme]


def test_back_to_back_runs_are_deterministic():
    a = run_experiment(golden_config("catfish"))
    b = run_experiment(golden_config("catfish"))
    assert result_fingerprint(a) == result_fingerprint(b)


# -- pins on what the scheme/chaos/KV fingerprints do not reach ----------
# The fingerprints above are small closed-loop runs: no open-loop queueing,
# no K=4 scatter under overload, no live migration.  Two more digests
# cover those, so a change that reorders same-instant events there (two
# sub-query completions on different shards at one float instant, say)
# cannot pass unnoticed.

def _digest(*parts) -> str:
    """16 hex of a sha256 over ``repr`` (floats hashed exactly)."""
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()[:16]


#: The open-shard-overload deployment (K=4 catfish, 2 cores per shard)
#: past its knee.  Re-pinned (was 9367d42accd99e26 at 600 000/s) when
#: the mux began carrying queued searches as one batch per session: the
#: knee moved from about 400 to about 950 Kops, so the run offered
#: 1 200 000/s to stay past it.  Re-pinned again (was e37b9e3c6595783d)
#: when each batched job began completing as soon as its own shards
#: answered, not when the slowest sub-batch of its batch did.  Re-rated
#: and re-pinned (was bdae2a9e4164e196 at 1 200 000/s for 13.5 ms) when
#: Algorithm 1 gained its latency guard: clients offload about 90 % of
#: reads, the knee moved to about 3.3 Mops (1 200 000/s ran with nothing
#: shed), so the run now offers 4 800 000/s for 3.375 ms, the same
#: number of arrivals, and sheds about a third of them.
GOLDEN_OPEN_OVERLOAD = "b483092758f8bb7f"

#: The same deployment at 150 000/s, below the knee: no
#: job ever waits for a session, so the mux never forms a batch and the
#: run is the one every request ran one at a time.  Pinned before the
#: mux began batching queued searches.  Re-pinned (was c7bbe790cbabc345)
#: when Algorithm 1 gained its latency guard: about 90 % of reads now
#: offload once the first heartbeat is consumed, p50 22.2 -> 15.25 µs.
GOLDEN_OPEN_SUBKNEE = "fc6bd39dcdb58f3c"

#: A small closed-shard-skew run: K=4 fast messaging over a hot corner,
#: with splits and live migrations firing.  Re-pinned (was
#: 9de83b132adf5613) when migrations began handing reads over at the end
#: of the drain, again (was 85209a0d9c77f795) when they began moving a
#: tile as one server op per source leaf, again (was 22c6fada4dfe950f)
#: when those ops began grafting and unlinking whole leaves, and again
#: (was 50bbb794104223c8) when the source began leaving a tile's reads
#: at the cut-over; see GOLDEN_CHAOS.
GOLDEN_ROUTED_REBALANCE = "507e9fd0791245b9"


def _benchmark_config(seed, **fields):
    """The configuration every scoreboard workload shares."""
    return ExperimentConfig(
        fabric="ib-100g", scale="powerlaw:7.07e-05:0.0707",
        heartbeat_interval=0.25e-3,
        adaptive=AdaptiveParams(N=8, T=0.95, Inv=0.25e-3),
        seed=seed, **fields)


def test_open_loop_overload_digest_matches_golden():
    traffic = TrafficConfig(
        kind="poisson", rate=4_800_000.0, duration_s=3.375e-3, n_aggregates=4,
        users_per_aggregate=1000, sessions=16, queue_watermark=512,
        window=1024)
    runner = TrafficRunner(_benchmark_config(
        7000, scheme="catfish", n_shards=4, server_cores=2,
        dataset_size=40_000, traffic=traffic))
    result = runner.run()
    shed = result.shed_window + result.shed_watermark + result.shed_admission
    assert shed > 0, "the run is not overloaded"
    assert runner.mux.batches > 0
    assert result.arrivals == result.completed + result.failed + shed
    assert _digest(result.arrivals, result.completed, result.failed, shed,
                   sorted(runner.sojourn.samples)) == GOLDEN_OPEN_OVERLOAD


def test_sub_knee_open_loop_never_batches():
    traffic = TrafficConfig(
        kind="poisson", rate=150_000.0, duration_s=0.0135, n_aggregates=4,
        users_per_aggregate=1000, sessions=16, queue_watermark=512,
        window=1024)
    runner = TrafficRunner(_benchmark_config(
        7000, scheme="catfish", n_shards=4, server_cores=2,
        dataset_size=40_000, traffic=traffic))
    result = runner.run()
    shed = result.shed_window + result.shed_watermark + result.shed_admission
    assert runner.mux.batches == 0
    assert result.arrivals == result.completed + result.failed + shed
    assert _digest(result.arrivals, result.completed, result.failed, shed,
                   sorted(runner.sojourn.samples)) == GOLDEN_OPEN_SUBKNEE


def test_routed_rebalance_digest_matches_golden():
    rng = random.Random(3)
    hot = []
    for _ in range(120):
        cx, cy = rng.uniform(0.0, 0.5), rng.uniform(0.0, 0.5)
        hot.append(Rect(max(cx - 0.015, 0.0), max(cy - 0.015, 0.0),
                        cx + 0.015, cy + 0.015))
    runner = ShardedExperimentRunner(_benchmark_config(
        3, scheme="fast-messaging-event", n_shards=4, server_cores=1,
        dataset_size=4000, max_entries=16, workload_kind="queries",
        queries=hot, n_clients=8, requests_per_client=150,
        rebalance=RebalanceConfig(interval=0.3e-3, split_ratio=2.0,
                                  min_split_items=16, drain_s=0.1e-3)))
    result = runner.run()
    assert result.extra["rebalance_migrations_completed"] > 0
    latencies = sorted(s for client in runner.client_stats
                       for s in client.latency.samples)
    assert _digest(result_fingerprint(result), sorted(result.extra.items()),
                   latencies) == GOLDEN_ROUTED_REBALANCE


# -- builder parity: one assembly path, same shape everywhere ------------

def tiny_config(scheme, **overrides):
    base = dict(scheme=scheme, fabric="ib-100g", n_clients=2,
                requests_per_client=1, dataset_size=60, server_cores=2,
                seed=0)
    base.update(overrides)
    return ExperimentConfig(**base)


RDMA_SCHEMES = sorted(
    name for name, spec in SCHEMES.items() if spec.transport != "tcp"
)


@pytest.mark.parametrize("scheme", RDMA_SCHEMES)
def test_single_and_sharded_builders_produce_same_session_shape(scheme):
    spec = SCHEMES[scheme]
    policy_type = EXPECTED_SHAPE[spec.offload]

    single = ExperimentRunner(tiny_config(scheme, n_shards=1))
    for session in single.sessions:
        assert type(session) is PolicySession
        assert type(session.policy) is policy_type
        assert session.policy.name == spec.policy

    sharded = ShardedExperimentRunner(tiny_config(scheme, n_shards=2))
    for per_client in sharded.sessions:
        assert len(per_client) == 2
        for session in per_client:
            assert type(session) is PolicySession
            assert type(session.policy) is policy_type
            assert session.policy.name == spec.policy


@pytest.mark.parametrize("index", ["rtree", "btree", "cuckoo"])
def test_offload_budgets_come_from_the_retry_policy(index):
    tight = RetryPolicy(offload_read_retries=3, offload_search_restarts=2)
    for retry, read_retries, restarts in ((tight, 3, 2), (None, 8, 8)):
        deployment = Deployment(
            tiny_config("rdma-offloading", retry=retry, index=index),
            routed=False)
        host = Host(deployment.sim, "client", deployment.profile, cores=2)
        engine = deployment.endpoint(0, host, ClientStats(), "c").engine
        assert engine.max_read_retries == read_retries
        assert engine.max_restarts == restarts


def test_tcp_builder_produces_tcp_sessions():
    from repro.client.tcp_client import TcpSession
    runner = ExperimentRunner(tiny_config("tcp", fabric="eth-1g"))
    assert all(type(s) is TcpSession for s in runner.sessions)


SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
REPO = SRC.parents[1]

#: Constructors only the one assembler may call...
ASSEMBLY_CALLS = ("Simulator", "ServerStack", "FaultInjector",
                  "RebalanceController", "partition_str", "SessionFactory")
#: ...and those with one home each elsewhere in ``src/repro``.
SINGLE_HOME_CALLS = {
    "FastMessagingServer": {"runtime/stack.py"},
    "HeartbeatService": {"runtime/stack.py"},
    "RTreeServer": {"runtime/stack.py"},
    # The offload engines are built only from the factory's table, by
    # index: no module names one in a call.
    "OffloadEngine": set(),
    "BTreeOffloadEngine": set(),
    "CuckooOffloadEngine": set(),
    # One-sided reads are posted only by the reader every offload engine
    # shares.
    "post_read": {"client/offload_client.py"},
    "post_read_batch": {"client/offload_client.py"},
    "PolicySession": {"runtime/factory.py"},
    "CircuitBreaker": {"runtime/factory.py", "shard/router.py"},
    "RunResult": {"cluster/builder.py", "traffic/harness.py"},
    "ScenarioReport": {"chaos/harness.py"},
}


def _python_files(*roots):
    for root in roots:
        yield from sorted(pathlib.Path(root).rglob("*.py"))


def _called_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            yield func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", None)


def test_duplicated_assembly_paths_are_gone():
    # One assembler: the three runners hold the same Deployment type...
    traffic = TrafficConfig(rate=1e4, duration_s=1e-4, sessions=1)
    runners = [
        ExperimentRunner(tiny_config("catfish")),
        ShardedExperimentRunner(tiny_config("catfish", n_shards=2)),
        TrafficRunner(tiny_config("catfish", traffic=traffic)),
    ]
    for runner in runners:
        assert type(runner.deployment) is Deployment
        assert isinstance(runner.deployment.factory, SessionFactory)

    # ...which is the only module in src/ that calls a cluster
    # constructor; the chaos scenarios are not exempt.
    expected = {name: {"cluster/deployment.py"} for name in ASSEMBLY_CALLS}
    expected.update(SINGLE_HOME_CALLS)
    callers = {name: set() for name in expected}
    for path in _python_files(SRC):
        for name in _called_names(ast.parse(path.read_text())):
            if name in callers:
                callers[name].add(path.relative_to(SRC).as_posix())
    assert callers == expected

    # ...and nothing reaches into a runner's underscore attributes from
    # outside (the runners' own modules say ``self._x``, never
    # ``runner._x``; everything that holds one calls it ``runner``).
    offenders = []
    for path in _python_files(SRC, REPO / "benchmarks", REPO / "examples",
                              REPO / "tests"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute)
                    and node.attr.startswith("_")
                    and not node.attr.startswith("__")
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "runner"):
                offenders.append(f"{path}:{node.lineno} .{node.attr}")
    assert not offenders, offenders


#: The per-index service plumbing the shared skeleton replaced, and the
#: per-index chunk-read rules one ``ChunkReads`` replaced.
RETIRED_SERVICE_CLASSES = {
    "TreeChunkTarget", "MetaTarget", "BTreeChunkTarget", "_KvMetaTarget",
    "_CuckooTarget", "KvMeta", "KvOffloadDescriptor",
    "SnapshotReader", "ByteTreeChunkTarget", "BTreeSnapshotReader",
    "ByteBTreeChunkTarget", "VersionValidationError",
}


def test_index_service_plumbing_lives_once():
    # One skeleton under the R-tree, B+tree and cuckoo servers: the
    # read-only target's write rejection, the plan dispatch, the
    # versioned-chunk protocol, the chunk-read rule, the FaRM framing
    # and the client's image check each have one home in src/repro.
    raises, plans, begin_writes, utilizations, classes = [], [], [], [], []
    read_targets, framings, checks = [], set(), []
    for path in _python_files(SRC):
        rel = path.relative_to(SRC).as_posix()
        package = rel.split("/")[0]
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = (node.exc.func if isinstance(node.exc, ast.Call)
                       else node.exc)
                if getattr(exc, "id", None) == "PermissionError":
                    raises.append(rel)
            elif isinstance(node, ast.FunctionDef):
                if node.name == "plan" and package in (
                        "server", "btree", "cuckoo"):
                    plans.append(rel)
                elif node.name == "begin_write":
                    begin_writes.append(rel)
                elif node.name == "cpu_utilization":
                    utilizations.append(rel)
                elif node.name == "_check" and package in (
                        "client", "btree", "cuckoo"):
                    checks.append(rel)
            elif isinstance(node, ast.ClassDef):
                classes.append(node.name)
                if any(getattr(base, "id", None) == "ReadOnlyTarget"
                       for base in node.bases):
                    read_targets.append(node.name)
            elif isinstance(node, ast.BinOp) and any(
                    getattr(side, "id", None) == "CACHE_LINE"
                    for side in (node.left, node.right)):
                # Cache-line version arithmetic: lines, footprint.
                framings.add(rel)
    assert raises == ["server/base.py"]
    assert plans == ["server/base.py"]
    assert begin_writes == ["rtree/node.py"]
    assert not utilizations, utilizations
    assert not RETIRED_SERVICE_CLASSES & set(classes)
    assert read_targets == ["ChunkReads"]
    assert framings == {"rtree/serialize.py"}
    assert checks == ["client/offload_client.py"]


def test_chaos_is_one_registry_above_the_runners():
    # Every scenario is the same kind of row and none brings a runner:
    # what a row runs is what its ExperimentConfig asks ``build_runner``
    # for.
    row_fields = {f.name for f in dataclasses.fields(Scenario)}
    assert row_fields == {"name", "summary", "config", "judge", "tweaks",
                          "workload"}
    assert all(type(row) is Scenario for row in SCENARIOS.values())
    # The package sits above cluster/shard/traffic and imports only
    # downward, so nothing in it is imported lazily...
    for path in _python_files(SRC / "chaos"):
        tree = ast.parse(path.read_text())
        imports = [node for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))]
        assert all(node in tree.body for node in imports), path
        assert not any(alias.name == "importlib" for node in imports
                       for alias in node.names), path
    # ...and nothing below it knows it exists.
    for path in _python_files(SRC):
        rel = path.relative_to(SRC).as_posix()
        if rel.startswith("chaos/") or rel == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                assert "chaos" not in (node.module or "").split("."), rel


def test_policy_session_is_the_only_policy_driven_session():
    # Paper §VI made literal: one session class for every policy and
    # index.  No subclass of it anywhere in src/, the only *Session
    # classes left are the transports' own, and nobody outside the
    # policy module reaches into the bandit's arm selection.
    session_classes, subclasses, choose_mode_users = set(), [], set()
    for path in _python_files(SRC):
        rel = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                if node.name.endswith("Session"):
                    session_classes.add(node.name)
                for base in node.bases:
                    name = (base.attr if isinstance(base, ast.Attribute)
                            else getattr(base, "id", None))
                    if name == "PolicySession":
                        subclasses.append(f"{rel}:{node.name}")
            elif isinstance(node, ast.Attribute) \
                    and node.attr == "_choose_mode":
                choose_mode_users.add(rel)
    assert session_classes == {"PolicySession", "FmSession", "KvFmSession",
                               "TcpSession"}
    assert not subclasses, subclasses
    assert choose_mode_users == {"runtime/policy.py"}


def test_adaptive_sessions_share_stream_names_across_deployments():
    # Both deployments must feed the policy from a stream named
    # "backoff" and the FM session from "retry" — the determinism
    # contract is stream *names*, which this guards structurally.
    single = ExperimentRunner(tiny_config("catfish"))
    sharded = ShardedExperimentRunner(tiny_config("catfish", n_shards=2))
    sessions = list(single.sessions) + [
        s for per_client in sharded.sessions for s in per_client
    ]
    for session in sessions:
        assert isinstance(session.fm, FmSession)
        assert session.policy.rng is not None
        assert session.engine is not None


# -- bandit parity (tracer + metrics + breaker, sharded support) ---------

def test_bandit_runs_sharded():
    config = tiny_config("catfish-bandit", n_shards=3,
                         requests_per_client=5)
    result = ShardedExperimentRunner(config).run()
    assert result.total_requests == config.total_requests
    assert result.extra["n_shards"] == 3.0


def test_bandit_gets_breaker_and_tracer_from_config():
    config = tiny_config("catfish-bandit", breaker=BreakerParams(),
                         trace=True)
    runner = ExperimentRunner(config)
    for session in runner.sessions:
        assert session.breaker is not None
        assert session.tracer is runner.tracer


def test_bandit_metrics_registered_in_both_runners():
    single = ExperimentRunner(tiny_config("catfish-bandit"))
    single.run()
    names = set(single.metrics.snapshot())
    assert {"bandit.explorations", "bandit.mode_fm",
            "bandit.mode_offload"} <= names

    sharded = ShardedExperimentRunner(
        tiny_config("catfish-bandit", n_shards=2, requests_per_client=3))
    sharded.run()
    assert "bandit.mode_fm" in set(sharded.metrics.snapshot())


def test_sharded_adaptive_aggregates_now_registered():
    runner = ShardedExperimentRunner(
        tiny_config("catfish", n_shards=2, requests_per_client=3))
    runner.run()
    names = set(runner.metrics.snapshot())
    assert {"adaptive.decisions_offload", "adaptive.decisions_fm",
            "offload.chunks_fetched"} <= names


# -- satellite: predictor dedupe ----------------------------------------

def test_most_recent_utilization_is_the_predictors_implementation():
    assert most_recent_utilization is most_recent
    assert most_recent_utilization(0.42) == 0.42
