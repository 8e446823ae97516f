"""Sharded chaos scenarios: shard loss, rebalance under fault, racing writes.

Runs a mixed read-only workload through a 4-shard cluster while one
shard fail-stops for the fault window, then checks the sharded system's
two-sided correctness contract:

* every *complete* :class:`~repro.shard.router.PartialResult` is exactly
  the single-tree oracle's answer (sharding is invisible when healthy);
* every *degraded* result is exactly the union of the surviving shards'
  oracle answers — a strict subset of the truth with per-shard blame,
  never a wrong or duplicated answer.

The harness mirrors :func:`repro.faults.scenarios.run_scenario`'s report
shape, so ``repro chaos`` and the smoke/test tooling treat shard-loss
like any other scenario (invariants, fired-counters, replayable
fingerprint).

Two further scenarios stress the *elastic* plane (PR 10):

* **rebalance-under-fault** — a skewed read-only workload drives tile
  splits and live migrations while the link drops 30% of packets; every
  complete result must still match the single-tree oracle exactly and
  every degraded result must stay sound (epoch-cut exactly-once under
  fault pressure);
* **migration-racing-writes** — a hybrid write workload races the
  migration copy/cut-over/drain windows; after settling, every dataset
  id and every acked insert must live in exactly one shard tree
  (conservation: migration neither loses nor duplicates racing writes).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

from ..client.base import OP_INSERT, READ_OPS
from ..cluster.config import ExperimentConfig, RebalanceConfig
from ..faults.plan import BOTH, FaultPlan, LinkFault, ShardLoss
from ..faults.scenarios import (
    ChaosConfig,
    ScenarioReport,
    client_totals,
    completion_rates,
    finished_check,
    record_fingerprint,
    recovery_check,
    run_to_limit,
)
from ..rtree.bulk import bulk_load
from .deploy import ShardedExperimentRunner
from .rebalance import RebalanceStats
from .router import RouterStats
from .verify import result_consistent, result_consistent_rebalance

#: The scenario's fixed topology: 4 shards, shard 1 lost for the window.
N_SHARDS = 4
LOST_SHARDS = (1,)

#: Aggressive controller tuning shared by both rebalance scenarios: the
#: chaos runs are short (a few ms simulated), so the controller must
#: observe, split and migrate inside that horizon at every test sizing.
REBALANCE_TUNING = RebalanceConfig(
    interval=0.02e-3,
    split_ratio=1.2,
    min_split_items=16,
    max_tiles=32,
    drain_s=0.05e-3,
)

#: One fingerprintable record per routed request:
#: (client id, request index, finish time, op, complete?).
Record = Tuple[int, int, float, str, bool]


def shard_loss_plan(cfg: ChaosConfig) -> FaultPlan:
    return FaultPlan((
        ShardLoss(cfg.fault_start, cfg.fault_end, shard_ids=LOST_SHARDS),
    ))


def rebalance_fault_plan(cfg: ChaosConfig) -> FaultPlan:
    return FaultPlan((
        LinkFault(cfg.fault_start, cfg.fault_end, direction=BOTH,
                  loss_prob=0.3, retransmit_delay_s=30e-6),
    ))


def _experiment_config(cfg: ChaosConfig, workload: str,
                       fault_plan: Optional[FaultPlan],
                       rebalance: Optional[RebalanceConfig] = None,
                       ) -> ExperimentConfig:
    return ExperimentConfig(
        scheme="catfish-sharded",
        fabric="ib-100g",
        n_clients=cfg.n_clients,
        requests_per_client=cfg.requests_per_client,
        workload_kind=workload,
        scale=str(cfg.query_scale),
        dataset_size=cfg.dataset_size,
        max_entries=cfg.max_entries,
        server_cores=cfg.server_cores,
        adaptive=cfg.adaptive,
        heartbeat_interval=cfg.heartbeat_interval,
        seed=cfg.seed,
        fault_plan=fault_plan,
        retry=cfg.retry,
        breaker=cfg.breaker,
        stale_after_missing=cfg.stale_after_missing,
        max_queue_depth=cfg.max_queue_depth,
        n_shards=N_SHARDS,
        rebalance=rebalance,
    )


# -- what the three scenarios share ------------------------------------------

def _run_cluster(cfg: ChaosConfig, workload: str,
                 fault_plan: Optional[FaultPlan],
                 rebalance: Optional[RebalanceConfig] = None):
    """Build, drive to the limit plus grace, settle migrations.

    Returns ``(runner, finished, records)``.
    """
    runner = ShardedExperimentRunner(
        _experiment_config(cfg, workload, fault_plan, rebalance),
        record_results=True,
    )
    finished = run_to_limit(runner.sim, runner.drive, cfg)
    runner.deployment.settle()
    records: List[Record] = [
        (client_id, index, t, request.op, result.complete)
        for client_id, router in enumerate(runner.routers)
        for index, request, result, t in router.log
    ]
    return runner, finished, records


def _router_counters(runner, fields) -> Dict[str, int]:
    return {
        field.replace("_", "-"): sum(int(getattr(r, field))
                                     for r in runner.router_stats)
        for field in fields
    }


def _rebalance_counters(runner) -> Dict[str, int]:
    counters: Dict[str, int] = {}
    if runner.injector is not None:
        counters["packets-dropped"] = int(runner.injector.packets_dropped)
    counters.update(_router_counters(
        runner, RouterStats.FIELDS + RouterStats.REBALANCE_FIELDS))
    for field in RebalanceStats.FIELDS:
        counters["rebalance-" + field.replace("_", "-")] = int(
            getattr(runner.rebalance_stats, field)
        )
    counters["map-epoch"] = runner.live_map.epoch
    counters["tiles"] = len(runner.live_map.tiles)
    return counters


def _check_reads(runner, cfg: ChaosConfig, consistent):
    """Oracle-check every logged result with ``consistent``.

    Returns ``(complete mismatches, degraded mismatches, degraded
    results, duplicate ids that reached a merge)``.  The workloads are
    read-only, so a single bulk-loaded tree is ground truth throughout.
    """
    tree = bulk_load(runner.dataset, max_entries=cfg.max_entries)
    complete_bad = degraded_bad = degraded = duplicates = 0
    for router in runner.routers:
        for _index, request, result, _t in router.log:
            duplicates += result.duplicates_dropped
            if not result.complete:
                degraded += 1
            if not consistent(runner, tree, request, result):
                if result.complete:
                    complete_bad += 1
                else:
                    degraded_bad += 1
    return complete_bad, degraded_bad, degraded, duplicates


def _report(name: str, cfg: ChaosConfig, runner, records: List[Record],
            counters: Dict[str, int], mismatches: int,
            rates: Tuple[float, float] = (0.0, 0.0)) -> ScenarioReport:
    return ScenarioReport(
        name=name,
        seed=cfg.seed,
        issued=cfg.total_requests,
        completed=len(records),
        timeouts=counters["shard-timeouts"],
        offload_errors=counters["shard-offload-errors"],
        mismatches=mismatches,
        pre_rate=rates[0],
        post_rate=rates[1],
        end_time=runner.sim.now,
        counters=counters,
        **client_totals(runner.client_stats),
    )


def _seal(report: ScenarioReport, cfg: ChaosConfig, records: List[Record],
          checks: List[Tuple[str, bool, str]]) -> ScenarioReport:
    report.invariants = checks
    report._fingerprint = record_fingerprint(
        f"{report.name}:{cfg.seed}:{N_SHARDS}",
        [f"{client_id},{index},{t:.15e},{op},{int(complete)}"
         for client_id, index, t, op, complete in sorted(records)],
        sorted(report.counters.items()),
    )
    return report


def _elastic_plane_checks(runner) -> List[Tuple[str, bool, str]]:
    """Both rebalance scenarios: migrations ran to completion and the
    live map survived every revision structurally intact."""
    stats = runner.rebalance_stats
    try:
        runner.live_map.check_invariants()
        invariants_hold, invariant_detail = True, "tiles disjoint + covering"
    except ValueError as exc:
        invariants_hold, invariant_detail = False, str(exc)
    return [
        ("migrations-completed",
         int(stats.migrations_completed) > 0
         and not runner.rebalancer.active_migrations,
         f"{int(stats.migrations_completed)} migrations completed, "
         f"{int(stats.items_migrated)} items moved"),
        ("map-invariants", invariants_hold, invariant_detail),
    ]


# -- shard loss ----------------------------------------------------------------

def run_shard_loss(cfg: ChaosConfig) -> ScenarioReport:
    """Run the scenario under ``cfg``; returns its report (failures are
    data, like every other chaos scenario)."""
    runner, finished, records = _run_cluster(
        cfg, "mixed", shard_loss_plan(cfg))
    complete_bad, degraded_bad, degraded_total, duplicates_dropped = \
        _check_reads(runner, cfg, result_consistent)
    degraded_in_window = sum(
        1 for _c, _i, t, _op, complete in records
        if not complete
        and cfg.fault_start <= t < cfg.fault_end + cfg.grace_s
    )

    injector = runner.injector
    counters: Dict[str, int] = {
        "shards-lost": int(injector.shards_lost),
        "shards-restored": int(injector.shards_restored),
        "workers-crashed": int(injector.workers_crashed),
        "workers-restarted": int(injector.workers_restarted),
        "beats-blacked-out": int(injector.beats_blacked_out),
    }
    counters.update(_router_counters(runner, RouterStats.FIELDS))
    report = _report(
        "shard-loss", cfg, runner, records, counters,
        complete_bad + degraded_bad,
        completion_rates([t for _c, _i, t, _op, _ok in records],
                         cfg.fault_start, cfg.fault_end),
    )

    checks: List[Tuple[str, bool, str]] = [
        finished_check(finished, runner.sim.now, cfg.time_limit),
        ("completed", report.completed == report.issued,
         f"{report.completed}/{report.issued} requests returned a "
         f"PartialResult ({degraded_total} degraded)"),
        ("complete-results-exact", complete_bad == 0,
         f"{complete_bad} complete results disagreed with the "
         f"single-tree oracle"),
        ("degraded-results-correct", degraded_bad == 0,
         f"{degraded_bad} of {degraded_total} degraded results "
         f"disagreed with their surviving shards' oracle"),
        ("exactly-once",
         duplicates_dropped == 0 and report.unexpected_messages == 0,
         f"{duplicates_dropped} duplicate ids reached the merge, "
         f"{report.unexpected_messages} unattributable messages "
         f"({report.duplicates_suppressed} late answers suppressed)"),
        ("partials-observed", degraded_in_window > 0,
         f"{degraded_in_window} degraded results during the outage "
         f"(loss must be client-visible, not silently absorbed)"),
        recovery_check(cfg, report.pre_rate, report.post_rate),
    ]
    for key in ("shards-lost", "shards-restored", "workers-crashed"):
        checks.append((
            f"fault-fired:{key}", counters[key] > 0,
            f"counter = {counters[key]}",
        ))
    return _seal(report, cfg, records, checks)


# -- the elastic-plane scenarios ---------------------------------------------

def run_rebalance_under_fault(cfg: ChaosConfig) -> ScenarioReport:
    """Skewed reads drive splits + migrations while the link drops 30%."""
    runner, finished, records = _run_cluster(
        cfg, "search-skewed", rebalance_fault_plan(cfg), REBALANCE_TUNING)
    complete_bad, degraded_bad, degraded_total, _duplicates = \
        _check_reads(runner, cfg, result_consistent_rebalance)

    counters = _rebalance_counters(runner)
    report = _report("rebalance-under-fault", cfg, runner, records,
                     counters, complete_bad + degraded_bad)
    splits = int(runner.rebalance_stats.splits)
    occupancy = runner.shard_occupancy()
    dropped = counters.get("packets-dropped", 0)
    migrations, map_invariants = _elastic_plane_checks(runner)
    return _seal(report, cfg, records, [
        finished_check(finished, runner.sim.now, cfg.time_limit),
        ("completed", report.completed == report.issued,
         f"{report.completed}/{report.issued} requests returned a result "
         f"({degraded_total} degraded)"),
        ("complete-results-exact", complete_bad == 0,
         f"{complete_bad} complete results disagreed with the "
         f"single-tree oracle (migration must be invisible)"),
        ("degraded-results-sound", degraded_bad == 0,
         f"{degraded_bad} of {degraded_total} degraded results "
         f"were unsound (invented ids / bad ordering)"),
        ("splits-fired", splits > 0, f"{splits} tile splits"),
        migrations,
        ("items-conserved", sum(occupancy) == cfg.dataset_size,
         f"final occupancy {occupancy} sums to {sum(occupancy)} "
         f"(dataset {cfg.dataset_size})"),
        map_invariants,
        ("fault-fired:packets-dropped", dropped > 0,
         f"counter = {dropped}"),
    ])


def run_migration_racing_writes(cfg: ChaosConfig) -> ScenarioReport:
    """Hybrid writes race the migration copy/cut-over/drain windows."""
    runner, finished, records = _run_cluster(
        cfg, "hybrid", None, REBALANCE_TUNING)
    windows = runner.rebalancer.migration_windows

    acked_inserts: List[int] = []
    unacked_inserts: List[int] = []
    inserts_in_window = 0
    duplicate_read_ids = 0
    for router in runner.routers:
        for _index, request, result, t in router.log:
            if request.op == OP_INSERT:
                # A complete insert was acked by its owner shard (the
                # FM reply payload itself is an empty segment list).
                if result.complete:
                    acked_inserts.append(request.data_id)
                    if any(start <= t <= (end if end is not None else t)
                           for start, end in windows):
                        inserts_in_window += 1
                else:
                    # A timed-out insert may still have been applied
                    # server-side before the ack was lost: ambiguous.
                    unacked_inserts.append(request.data_id)
            elif request.op in READ_OPS and isinstance(result.results,
                                                       list):
                ids = [d for _r, d in result.results]
                duplicate_read_ids += len(ids) - len(set(ids))

    # Conservation: after settling, the union of the shard trees must
    # hold the dataset plus every acked insert exactly once each.
    # Unacked (timed-out) insert attempts are ambiguous — the server
    # may have applied them before the reply was lost — so their ids
    # are allowed to appear at most once, but nothing else may.
    held: List[int] = []
    for stack in runner.shards:
        held.extend(
            entry.data_id
            for node in stack.server.tree.nodes.values()
            if node.level == 0
            for entry in node.entries
        )
    held_counts = Counter(held)
    expected_ids = sorted(
        [data_id for _rect, data_id in runner.dataset] + acked_inserts
    )
    expected_set = set(expected_ids)
    ambiguous = set(unacked_inserts) - expected_set
    missing = [d for d in expected_ids if held_counts.get(d, 0) != 1]
    extras = [
        d for d, n in held_counts.items()
        if d not in expected_set and (d not in ambiguous or n != 1)
    ]
    conserved = not missing and not extras

    counters = _rebalance_counters(runner)
    counters["acked-inserts"] = len(acked_inserts)
    counters["inserts-in-migration-window"] = inserts_in_window
    report = _report("migration-racing-writes", cfg, runner, records,
                     counters, 0 if conserved else 1)
    migrations, map_invariants = _elastic_plane_checks(runner)
    return _seal(report, cfg, records, [
        finished_check(finished, runner.sim.now, cfg.time_limit),
        ("completed", report.completed == report.issued,
         f"{report.completed}/{report.issued} requests returned a result"),
        migrations,
        ("writes-raced-migration", inserts_in_window > 0,
         f"{inserts_in_window} of {len(acked_inserts)} acked inserts "
         f"landed inside a migration window"),
        ("conservation-exact", conserved,
         f"{len(held)} items across final trees vs "
         f"{len(expected_ids)} expected (dataset + acked inserts, "
         f"{len(ambiguous)} unacked attempts ambiguous), "
         f"{'exact' if conserved else 'MISMATCH'}"),
        ("reads-exactly-once", duplicate_read_ids == 0,
         f"{duplicate_read_ids} duplicate ids delivered to clients"),
        map_invariants,
    ])
