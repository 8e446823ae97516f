"""The routed record shape: a 4-shard cluster behind scatter-gather routers.

``shard-loss`` runs a mixed read-only workload while one shard
fail-stops for the fault window, and checks the sharded system's
two-sided correctness contract:

* every *complete* :class:`~repro.shard.router.PartialResult` is exactly
  the single-tree oracle's answer (sharding is invisible when healthy);
* every *degraded* result is exactly the union of the surviving shards'
  oracle answers — a strict subset of the truth with per-shard blame,
  never a wrong or duplicated answer.

Two further scenarios stress the *elastic* plane:

* **rebalance-under-fault** — a skewed read-only workload drives tile
  splits and live migrations while the link drops 30% of packets; every
  complete result must still match the single-tree oracle exactly and
  every degraded result must stay sound (epoch-cut exactly-once under
  fault pressure);
* **migration-racing-writes** — a hybrid write workload races the
  migration copy/cut-over/drain windows; after settling, every dataset
  id and every acked insert must live in exactly one shard tree
  (conservation: migration neither loses nor duplicates racing writes).

The records are the routers' own logs; the read oracle is
:func:`repro.shard.verify.verify_routed_results`.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

from ..client.base import OP_INSERT, READ_OPS
from ..cluster.config import ExperimentConfig, RebalanceConfig
from ..faults.plan import FaultPlan
from ..shard.rebalance import RebalanceStats
from ..shard.router import RouterStats
from ..shard.verify import verify_routed_results
from .harness import (
    FAULT_END,
    FAULT_START,
    GRACE_S,
    ChaosConfig,
    Check,
    Run,
    ScenarioReport,
    base_config,
    fired_check,
    recovery_check,
)

#: The scenarios' fixed topology: 4 shards, shard 1 lost for the window.
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


def config(workload: str, fault_plan: Optional[FaultPlan] = None,
           rebalance: Optional[RebalanceConfig] = None,
           ) -> Callable[[ChaosConfig], ExperimentConfig]:
    """The 4-shard deployment under ``workload``."""
    return lambda cfg: base_config(
        cfg, scheme="catfish-sharded", n_shards=N_SHARDS,
        workload_kind=workload, fault_plan=fault_plan, rebalance=rebalance,
    )


# -- what the three judges share ---------------------------------------------

def _records(runner) -> List[Record]:
    return [
        (client_id, index, t, request.op, result.complete)
        for client_id, router in enumerate(runner.routers)
        for index, request, result, t in router.log
    ]


def _router_counters(runner, fields) -> Dict[str, int]:
    return {
        field.replace("_", "-"): sum(int(getattr(r, field))
                                     for r in runner.router_stats)
        for field in fields
    }


def _rebalance_counters(runner) -> Dict[str, int]:
    counters = _router_counters(
        runner, RouterStats.FIELDS + RouterStats.REBALANCE_FIELDS)
    for field in RebalanceStats.FIELDS:
        counters["rebalance-" + field.replace("_", "-")] = int(
            getattr(runner.rebalance_stats, field)
        )
    counters["map-epoch"] = runner.live_map.epoch
    counters["tiles"] = len(runner.live_map.tiles)
    return counters


def _seal(run: Run, records: List[Record], counters: Dict[str, int],
          mismatches: int, checks: List[Check]) -> ScenarioReport:
    return run.report(
        run.cfg.total_requests, len(records), mismatches,
        # Sorted: the routed digests were pinned on name order.
        dict(sorted(counters.items())), checks,
        [f"{run.name}:{run.cfg.seed}:{N_SHARDS}"]
        + [f"{client_id},{index},{t:.15e},{op},{int(complete)}"
           for client_id, index, t, op, complete in sorted(records)],
    )


def _elastic_plane_checks(runner) -> Tuple[Check, Check, Check]:
    """Both rebalance scenarios: migrations ran to completion, the live
    map survived every revision structurally intact, and so did every
    shard tree the migrations grafted leaves into and unlinked them
    from."""
    stats = runner.rebalance_stats
    try:
        runner.live_map.check_invariants()
        invariants_hold, invariant_detail = True, "tiles disjoint + covering"
    except ValueError as exc:
        invariants_hold, invariant_detail = False, str(exc)
    trees_hold, tree_detail = True, (
        f"{len(runner.shards)} shard trees: fill, levels, MBRs, size")
    for shard_id, stack in enumerate(runner.shards):
        try:
            stack.server.tree.validate()
        except AssertionError as exc:
            trees_hold, tree_detail = False, f"shard {shard_id}: {exc}"
            break
    return (
        ("migrations-completed",
         int(stats.migrations_completed) > 0
         and not runner.rebalancer.active_migrations,
         f"{int(stats.migrations_completed)} migrations completed, "
         f"{int(stats.items_migrated)} items moved"),
        ("map-invariants", invariants_hold, invariant_detail),
        ("tree-invariants", trees_hold, tree_detail),
    )


# -- shard loss ----------------------------------------------------------------

def judge_shard_loss(run: Run) -> ScenarioReport:
    runner = run.runner
    records = _records(runner)
    reads = verify_routed_results(runner)
    degraded_in_window = sum(
        1 for _c, _i, t, _op, complete in records
        if not complete and FAULT_START <= t < FAULT_END + GRACE_S
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
    issued, completed = run.cfg.total_requests, len(records)
    unexpected = run.total("unexpected_messages")
    checks: List[Check] = [
        ("completed", completed == issued,
         f"{completed}/{issued} requests returned a "
         f"PartialResult ({reads.degraded_results} degraded)"),
        ("complete-results-exact", reads.complete_mismatches == 0,
         f"{reads.complete_mismatches} complete results disagreed with "
         f"the single-tree oracle"),
        ("degraded-results-correct", reads.degraded_mismatches == 0,
         f"{reads.degraded_mismatches} of {reads.degraded_results} "
         f"degraded results disagreed with their surviving shards' oracle"),
        ("exactly-once",
         reads.duplicates_dropped == 0 and unexpected == 0,
         f"{reads.duplicates_dropped} duplicate ids reached the merge, "
         f"{unexpected} unattributable messages "
         f"({run.total('duplicates_suppressed')} late answers suppressed)"),
        ("partials-observed", degraded_in_window > 0,
         f"{degraded_in_window} degraded results during the outage "
         f"(loss must be client-visible, not silently absorbed)"),
        recovery_check(t for _c, _i, t, _op, _ok in records),
    ]
    checks.extend(
        fired_check(key, counters[key])
        for key in ("shards-lost", "shards-restored", "workers-crashed"))
    return _seal(run, records, counters,
                 reads.complete_mismatches + reads.degraded_mismatches,
                 checks)


# -- the elastic-plane scenarios ---------------------------------------------

def judge_rebalance_under_fault(run: Run) -> ScenarioReport:
    """Skewed reads drove splits + migrations while the link dropped 30%."""
    cfg, runner = run.cfg, run.runner
    records = _records(runner)
    reads = verify_routed_results(runner)
    counters = _rebalance_counters(runner)
    counters["packets-dropped"] = int(runner.injector.packets_dropped)
    splits = int(runner.rebalance_stats.splits)
    occupancy = runner.shard_occupancy()
    migrations, map_invariants, tree_invariants = _elastic_plane_checks(
        runner)
    issued, completed = cfg.total_requests, len(records)
    return _seal(
        run, records, counters,
        reads.complete_mismatches + reads.degraded_mismatches, [
            ("completed", completed == issued,
             f"{completed}/{issued} requests returned a result "
             f"({reads.degraded_results} degraded)"),
            ("complete-results-exact", reads.complete_mismatches == 0,
             f"{reads.complete_mismatches} complete results disagreed "
             f"with the single-tree oracle (migration must be invisible)"),
            ("degraded-results-sound", reads.degraded_mismatches == 0,
             f"{reads.degraded_mismatches} of {reads.degraded_results} "
             f"degraded results were unsound (invented ids / bad ordering)"),
            ("splits-fired", splits > 0, f"{splits} tile splits"),
            migrations,
            ("items-conserved", sum(occupancy) == cfg.dataset_size,
             f"final occupancy {occupancy} sums to {sum(occupancy)} "
             f"(dataset {cfg.dataset_size})"),
            map_invariants,
            tree_invariants,
            fired_check("packets-dropped", counters["packets-dropped"]),
        ])


def judge_migration_racing_writes(run: Run) -> ScenarioReport:
    """Hybrid writes raced the migration copy/cut-over/drain windows."""
    runner = run.runner
    records = _records(runner)
    windows = runner.rebalancer.migration_windows

    acked_inserts: List[int] = []
    unacked_inserts: List[int] = []
    inserts_in_window = 0
    duplicate_read_ids = 0
    for router in runner.routers:
        for _index, request, result, t in router.log:
            if request.op == OP_INSERT:
                # A complete insert was acked by its owner shard.
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
    migrations, map_invariants, tree_invariants = _elastic_plane_checks(
        runner)
    issued, completed = run.cfg.total_requests, len(records)
    return _seal(run, records, counters, 0 if conserved else 1, [
        ("completed", completed == issued,
         f"{completed}/{issued} requests returned a result"),
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
        tree_invariants,
    ])
