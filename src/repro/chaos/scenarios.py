"""The chaos registry and its one runner.

Thirteen scenarios, thirteen :class:`~repro.chaos.harness.Scenario`
rows, judged over one of three record shapes
(:mod:`~repro.chaos.plain`, :mod:`~repro.chaos.routed`,
:mod:`~repro.chaos.open_loop`).  :func:`run_scenario` is the only way
any of them runs.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional

from ..client.resilience import RetryPolicy
from ..cluster.builder import build_runner
from ..faults.plan import (
    BOTH,
    TX,
    ClientStall,
    FaultPlan,
    HeartbeatBlackout,
    LinkFault,
    NicReadStall,
    ShardLoss,
    WorkerCrash,
    WriteStorm,
)
from ..sim.kernel import SimulationError
from . import open_loop, plain, routed
from .harness import (
    DEFAULT_RETRY,
    FAULT_END,
    FAULT_START,
    GRACE_S,
    TIME_LIMIT,
    ChaosConfig,
    Run,
    Scenario,
    ScenarioReport,
)

_THIRD = (FAULT_END - FAULT_START) / 3.0
_WORKER_CRASH = FaultPlan((WorkerCrash(FAULT_START, FAULT_END),))
_LINK_LOSS = FaultPlan((
    LinkFault(FAULT_START, FAULT_END, direction=BOTH, loss_prob=0.3,
              retransmit_delay_s=30e-6),
))

SCENARIOS: Dict[str, Scenario] = {
    s.name: s for s in (
        plain.row(
            "link-loss",
            "30% packet loss on the server link; retransmit delays",
            _LINK_LOSS,
            plain.judge("packets-dropped"),
        ),
        plain.row(
            "latency-spike",
            "flat +60us on every server->client transfer",
            FaultPlan((
                LinkFault(FAULT_START, FAULT_END, direction=TX,
                          extra_latency_s=60e-6),
            )),
            plain.judge("latency-injected"),
        ),
        plain.row(
            "nic-read-stall",
            "server NIC adds 10us to every one-sided read it serves",
            FaultPlan((
                NicReadStall(FAULT_START, FAULT_END, host="server",
                             stall_s=10e-6),
            )),
            plain.judge("nic-stalls"),
        ),
        plain.row(
            "worker-crash",
            "all server workers fail-stop for the window, then restart",
            _WORKER_CRASH,
            plain.judge("workers-crashed", "workers-restarted",
                        "duplicates-suppressed"),
        ),
        plain.row(
            "heartbeat-blackout",
            "the heartbeat service sends nothing for the window",
            FaultPlan((HeartbeatBlackout(FAULT_START, FAULT_END),)),
            plain.judge("beats-blacked-out"),
        ),
        plain.row(
            "write-storm",
            "forced torn windows on the root; offload trips the breaker",
            # The hold must outlast a full offload retry budget (~36us
            # with the budgets below) or every search squeaks through on
            # the gap.
            FaultPlan((
                WriteStorm(FAULT_START, FAULT_END, hold_s=250e-6,
                           gap_s=8e-6),
            )),
            plain.judge_write_storm,
            # Tight offload budgets: the storm produces OffloadErrors in
            # microseconds instead of grinding through the default 8/8 —
            # with which the breaker does not reliably trip inside the
            # window at any sizing.
            tweaks=(
                ("retry", replace(DEFAULT_RETRY, offload_read_retries=4,
                                  offload_search_restarts=3)),
            ),
        ),
        plain.row(
            "overload-shed",
            "worker crash + queue-depth cap: stale backlog is shed",
            _WORKER_CRASH,
            plain.judge("workers-crashed", "requests-shed"),
            tweaks=(("max_queue_depth", 1),),
        ),
        plain.row(
            "slow-client",
            "clients 0/1 pause 150us before each request in the window",
            FaultPlan((
                ClientStall(FAULT_START, FAULT_END, client_ids=(0, 1),
                            stall_s=0.15e-3),
            )),
            plain.judge("client-stalls"),
        ),
        Scenario(
            "shard-loss",
            "one shard of a 4-shard cluster fail-stops; router degrades "
            "to partial results",
            routed.config("mixed", fault_plan=FaultPlan((
                ShardLoss(FAULT_START, FAULT_END,
                          shard_ids=routed.LOST_SHARDS),
            ))),
            routed.judge_shard_loss,
            # The total retry budget (attempts x per-attempt deadline)
            # must exhaust *inside* the outage, or every request to the
            # dead shard blocks until the restart drain answers it and
            # the loss is never client-visible.
            tweaks=(
                ("retry", RetryPolicy(deadline_s=0.15e-3, max_attempts=2,
                                      backoff_base_s=20e-6)),
            ),
        ),
        Scenario(
            "flash-crowd",
            "open-loop arrival spike; mux watermark and the server "
            "overload guard shed, then recover",
            open_loop.flash_crowd_config, open_loop.judge_flash_crowd,
            # A per-attempt deadline a saturated session blows (service
            # rounds across the mux's contended sessions exceed it)
            # while an uncontended base-rate request never does — that
            # is what piles retries onto the rings and trips the
            # queue-depth guard during the spike.  The deployment shape
            # (cores, dataset, aggregates) is pinned alongside the
            # deadline: the spike/recover calibration holds only when
            # the base-rate service time sits below the deadline and
            # the spiked service time above it.
            tweaks=(
                ("retry", RetryPolicy(deadline_s=40e-6, max_attempts=2,
                                      backoff_base_s=5e-6)),
                ("max_queue_depth", 1),
                ("server_cores", 2),
                ("n_clients", 2),
                ("dataset_size", 1000),
                ("max_entries", 64),
            ),
        ),
        Scenario(
            "rebalance-under-fault",
            "skewed reads drive tile splits + live migration on a lossy "
            "link; the epoch-cut protocol must stay exactly-once",
            routed.config("search-skewed", fault_plan=_LINK_LOSS,
                          rebalance=routed.REBALANCE_TUNING),
            routed.judge_rebalance_under_fault,
        ),
        Scenario(
            "migration-racing-writes",
            "inserts and deletes race live migration windows; "
            "conservation (no lost, duplicated or resurrected item) must "
            "hold after settling",
            routed.config("churn", rebalance=routed.REBALANCE_TUNING),
            routed.judge_migration_racing_writes,
        ),
        plain.row(
            "chaos-combo",
            "loss + heartbeat blackout + one crashed worker + NIC stalls",
            FaultPlan((
                LinkFault(FAULT_START, FAULT_END, direction=BOTH,
                          loss_prob=0.15, retransmit_delay_s=30e-6),
                HeartbeatBlackout(FAULT_START, FAULT_START + 2 * _THIRD),
                WorkerCrash(FAULT_START + _THIRD, FAULT_END, conn_ids=(0,)),
                NicReadStall(FAULT_START + _THIRD, FAULT_END, host="server",
                             stall_s=5e-6),
            )),
            plain.judge("packets-dropped", "beats-blacked-out",
                        "workers-crashed"),
        ),
    )
}


def run_scenario(name: str, seed: int = 0,
                 config: Optional[ChaosConfig] = None,
                 **overrides) -> ScenarioReport:
    """Run one named scenario; returns its report (never raises on a
    failed invariant — failures are data).  Unknown names raise KeyError.
    """
    try:
        scenario = SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {', '.join(SCENARIOS)}"
        ) from None
    # Defaults, then what the scenario needs, then what the caller asked.
    cfg = replace(config if config is not None else ChaosConfig(),
                  seed=seed, **dict(scenario.tweaks))
    cfg = replace(cfg, **overrides)

    workload_fn = (scenario.workload(cfg)
                   if scenario.workload is not None else None)
    runner = build_runner(scenario.config(cfg), record_results=True,
                          workload_fn=workload_fn)
    finished = True
    try:
        runner.drive(TIME_LIMIT)
    except SimulationError:
        # A wedge fails its finished-in-time check; it does not hang.
        finished = False
    # Late and suppressed segments drain, then any in-flight migration
    # finishes, before the judge reads anything.
    runner.sim.run(until=runner.sim.now + GRACE_S)
    runner.deployment.settle()
    return scenario.judge(Run(name=name, cfg=cfg, runner=runner,
                              finished=finished))
