"""The flash-crowd chaos scenario: overload guards shedding, then
recovering, under a deterministic open-loop arrival spike.

The spike reuses the chaos harness's fault window
(``[fault_start, fault_end)``): offered load runs at a comfortable base
rate, multiplies by :data:`SPIKE_MULTIPLIER` inside the window, and
returns to base — no fault injector involved; the *workload itself* is
the fault.  Every protection layer must be observed doing its job:

* the mux front-end sheds at its queue-depth watermark while the spike
  outruns service capacity (client-side admission control);
* the server's overload guard (``max_queue_depth`` / ``requests_shed``
  from the robustness PR) fires: saturated sessions blow their retry
  deadline, retries pile onto the request rings, and the guard drops
  the stale backlog;
* after the spike, shedding *stops* and the completion rate recovers —
  the guards degraded the spike, not the service.

Invariants additionally pin exact conservation (every arrival is
accounted completed/failed/shed) and oracle correctness of every
completed answer, and the whole run is fingerprinted for bit-identical
replay (asserted in the chaos suite).
"""

from __future__ import annotations

from typing import List, Tuple

from ..cluster.config import ExperimentConfig
from ..faults.scenarios import (
    ChaosConfig,
    ScenarioReport,
    client_totals,
    completion_rates,
    finished_check,
    record_fingerprint,
    recovery_check,
)
from ..sim.kernel import SimulationError
from .config import TrafficConfig
from .harness import DRAIN_GRACE_S, TrafficRunner
from .mux import OK

#: Total offered base load — well under the deployment's service
#: capacity (~150k/s at the scenario's 2 cores) so pre-spike arrivals
#: all complete and pre-spike execute times never blow the retry
#: deadline.
BASE_RATE = 60_000.0
SPIKE_MULTIPLIER = 12.0
#: Simulated time past the spike end for queues to drain before the
#: recovery window is judged.  Sized above the worst-case session hold
#: of one retry-exhausting job (max_attempts deadlines plus the full
#: backoff ladder, ~0.4ms): the mux queue cannot fall below the
#: watermark while every session is pinned draining spike-era retries.
RECOVERY_MARGIN_S = 0.45e-3
#: Post-spike observation time (beyond margin) — the recovery window.
POST_WINDOW_S = 0.4e-3

USERS_PER_AGGREGATE = 4096
SESSIONS = 12
QUEUE_WATERMARK = 32
WINDOW = 64


def flash_crowd_config(cfg: ChaosConfig) -> ExperimentConfig:
    """The open-loop deployment the scenario runs (derived, not random)."""
    duration = cfg.fault_end + RECOVERY_MARGIN_S + POST_WINDOW_S
    traffic = TrafficConfig(
        kind="flash-crowd",
        rate=BASE_RATE,
        duration_s=duration,
        n_aggregates=cfg.n_clients,
        users_per_aggregate=USERS_PER_AGGREGATE,
        window=WINDOW,
        sessions=SESSIONS,
        queue_watermark=QUEUE_WATERMARK,
        spike_start=cfg.fault_start,
        spike_end=cfg.fault_end,
        spike_multiplier=SPIKE_MULTIPLIER,
    )
    return ExperimentConfig(
        # Event-mode workers: polling workers would spin the scenario's
        # deliberately scarce cores flat even at base load.
        scheme="fast-messaging-event",
        fabric="ib-100g",
        n_clients=max(cfg.n_clients, 1),
        requests_per_client=max(cfg.requests_per_client, 1),
        dataset_size=cfg.dataset_size,
        max_entries=cfg.max_entries,
        server_cores=cfg.server_cores,
        heartbeat_interval=cfg.heartbeat_interval,
        seed=cfg.seed,
        retry=cfg.retry,
        max_queue_depth=cfg.max_queue_depth,
        traffic=traffic,
    )


def run_flash_crowd(cfg: ChaosConfig) -> ScenarioReport:
    config = flash_crowd_config(cfg)
    traffic = config.traffic
    runner = TrafficRunner(config, record=True)
    finished = True
    try:
        result = runner.run()
    except SimulationError:
        finished = False
        result = runner.collect()

    sim = runner.sim
    mux = runner.mux
    spike_start, spike_end = traffic.spike_start, traffic.spike_end
    duration = traffic.duration_s
    recover_at = spike_end + RECOVERY_MARGIN_S

    jobs = mux.finished_jobs
    client_sheds: List[float] = sorted(
        mux.shed_times
        + [t for agg in runner.aggregates for t in agg.shed_times]
    )

    def sheds_in(start: float, end: float) -> int:
        return sum(1 for t in client_sheds if start <= t < end)

    def arrivals_in(start: float, end: float) -> int:
        return (sum(1 for j in jobs if start <= j.t_arrival < end)
                + sheds_in(start, end))

    # Oracle: read-only search workload against a never-mutated tree.
    tree = runner.stacks[0].server.tree
    mismatches = 0
    for job in jobs:
        if job.status != OK:
            continue
        ids = tuple(sorted(data_id for _rect, data_id in job.results))
        expected = tuple(sorted(tree.search(job.request.rect).data_ids))
        if ids != expected:
            mismatches += 1

    pre_rate, post_rate = completion_rates(
        [j.t_done for j in jobs if j.status == OK], spike_start, recover_at,
    )

    spike_span = spike_end - spike_start
    base_span = duration - spike_span
    spike_arrival_rate = (arrivals_in(spike_start, spike_end) / spike_span
                          if spike_span > 0 else 0.0)
    base_arrival_rate = ((result.arrivals
                          - arrivals_in(spike_start, spike_end)) / base_span
                         if base_span > 0 else 0.0)

    totals = client_totals(runner.session_stats)
    report = ScenarioReport(
        name="flash-crowd",
        seed=cfg.seed,
        issued=result.arrivals,
        completed=result.completed,
        timeouts=result.failed,
        offload_errors=0,
        mismatches=mismatches,
        pre_rate=pre_rate,
        post_rate=post_rate,
        end_time=sim.now,
        **totals,
        counters={
            "arrivals": result.arrivals,
            "completed": result.completed,
            "failed": result.failed,
            "shed-window": result.shed_window,
            "shed-watermark": result.shed_watermark,
            "shed-admission": result.shed_admission,
            "server-requests-shed": result.server_shed,
            "retries": totals["retries"],
        },
    )

    checks: List[Tuple[str, bool, str]] = [
        finished_check(finished, sim.now, duration + DRAIN_GRACE_S),
    ]
    accounted = (result.completed + result.failed
                 + result.shed_client_total)
    checks.append((
        "conservation", accounted == result.arrivals,
        f"{result.arrivals} arrivals = {result.completed} completed + "
        f"{result.failed} failed + {result.shed_client_total} shed",
    ))
    checks.append((
        "oracle-match", mismatches == 0,
        f"{mismatches} completed answers disagreed with the tree",
    ))
    checks.append((
        "fault-fired:spike-arrivals",
        spike_arrival_rate > 3.0 * max(base_arrival_rate, 1.0),
        f"spike arrival rate {spike_arrival_rate / 1e3:.0f}k/s vs base "
        f"{base_arrival_rate / 1e3:.0f}k/s",
    ))
    spike_sheds = sheds_in(spike_start, recover_at)
    checks.append((
        "fault-fired:client-shed", spike_sheds > 0,
        f"{spike_sheds} front-end sheds during the spike "
        f"(watermark {traffic.queue_watermark}, window {traffic.window})",
    ))
    checks.append((
        "fault-fired:server-shed", result.server_shed > 0,
        f"server overload guard dropped {result.server_shed} requests "
        f"(max_queue_depth={config.max_queue_depth})",
    ))
    pre_sheds = sheds_in(0.0, spike_start)
    checks.append((
        "no-shed-before-spike", pre_sheds == 0,
        f"{pre_sheds} client sheds before t={spike_start * 1e3:.2f}ms",
    ))
    late_sheds = sheds_in(recover_at, duration + 1.0)
    checks.append((
        "shedding-stopped", late_sheds == 0,
        f"{late_sheds} client sheds after "
        f"t={recover_at * 1e3:.2f}ms (drain margin "
        f"{RECOVERY_MARGIN_S * 1e6:.0f}us)",
    ))
    # The workload itself is the fault here, so both phases must have
    # been observed: a missing sample fails instead of passing vacuously.
    checks.append(recovery_check(cfg, pre_rate, post_rate,
                                 vacuous_ok=False))
    report.invariants = checks

    lines = []
    for job in sorted(jobs, key=lambda j: (j.aggregate_id, j.seq)):
        ids = (tuple(sorted(d for _r, d in job.results))
               if job.status == OK else ())
        lines.append(
            f"{job.aggregate_id},{job.seq},{job.user_id},{job.status},"
            f"{job.t_arrival:.15e},{job.t_done:.15e},"
            f"{len(ids)},{sum(ids)}"
        )
    lines.extend(f"shed,{t:.15e}" for t in client_sheds)
    report._fingerprint = record_fingerprint(
        f"flash-crowd:{cfg.seed}", lines, report.counters.items())
    return report
