"""The open-loop record shape: the flash-crowd scenario.

Overload guards shedding, then recovering, under a deterministic
open-loop arrival spike.  The spike reuses the chaos fault window
(``[FAULT_START, FAULT_END)``): offered load runs at a comfortable base
rate, multiplies by :data:`SPIKE_MULTIPLIER` inside the window, and
returns to base — no fault injector involved; the *workload itself* is
the fault.  Every protection layer must be observed doing its job:

* the mux front-end sheds at its queue-depth watermark while the spike
  outruns service capacity (client-side admission control);
* the server's overload guard (``max_queue_depth`` / ``requests_shed``)
  fires: saturated sessions blow their retry deadline, retries pile onto
  the request rings, and the guard drops the stale backlog;
* after the spike, shedding *stops* and the completion rate recovers —
  the guards degraded the spike, not the service.

Invariants additionally pin exact conservation (every arrival is
accounted completed/failed/shed) and oracle correctness of every
completed answer.  The records are the mux's finished jobs and the
front-end shed times.
"""

from __future__ import annotations

from typing import List, Tuple

from ..cluster.config import ExperimentConfig
from ..traffic.config import TrafficConfig
from ..traffic.mux import OK
from .harness import (
    FAULT_END,
    FAULT_START,
    ChaosConfig,
    Check,
    Run,
    ScenarioReport,
    base_config,
    recovery_check,
)

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
    traffic = TrafficConfig(
        kind="flash-crowd",
        rate=BASE_RATE,
        duration_s=FAULT_END + RECOVERY_MARGIN_S + POST_WINDOW_S,
        n_aggregates=cfg.n_clients,
        users_per_aggregate=USERS_PER_AGGREGATE,
        window=WINDOW,
        sessions=SESSIONS,
        queue_watermark=QUEUE_WATERMARK,
        spike_start=FAULT_START,
        spike_end=FAULT_END,
        spike_multiplier=SPIKE_MULTIPLIER,
    )
    return base_config(
        cfg,
        # Event-mode workers: polling workers would spin the scenario's
        # deliberately scarce cores flat even at base load.
        scheme="fast-messaging-event",
        # The paper's tiny CPU-bound queries: the spike/recover
        # calibration (base-rate service time under the retry deadline,
        # spiked service time over it) is pinned on them.
        scale="0.00001",
        traffic=traffic,
    )


def judge_flash_crowd(run: Run) -> ScenarioReport:
    cfg, runner = run.cfg, run.runner
    traffic = runner.traffic
    result = runner.collect()
    spike_start, spike_end = traffic.spike_start, traffic.spike_end
    duration = traffic.duration_s
    recover_at = spike_end + RECOVERY_MARGIN_S

    jobs = runner.mux.finished_jobs
    client_sheds: List[float] = sorted(
        runner.mux.shed_times
        + [t for agg in runner.aggregates for t in agg.shed_times]
    )

    def sheds_in(start: float, end: float) -> int:
        return sum(1 for t in client_sheds if start <= t < end)

    # One fingerprint line per job, and the oracle on the way: a
    # read-only search workload against a never-mutated tree.
    tree = runner.stacks[0].server.tree
    mismatches = 0
    lines = [f"{run.name}:{cfg.seed}"]
    for job in sorted(jobs, key=lambda j: (j.aggregate_id, j.seq)):
        ids: Tuple[int, ...] = ()
        if job.status == OK:
            ids = tuple(sorted(data_id for _rect, data_id in job.results))
            if ids != tuple(sorted(
                    tree.search(job.request.rect).data_ids)):
                mismatches += 1
        lines.append(
            f"{job.aggregate_id},{job.seq},{job.user_id},{job.status},"
            f"{job.t_arrival:.15e},{job.t_done:.15e},"
            f"{len(ids)},{sum(ids)}"
        )
    lines.extend(f"shed,{t:.15e}" for t in client_sheds)

    spike_arrivals = (
        sum(1 for j in jobs if spike_start <= j.t_arrival < spike_end)
        + sheds_in(spike_start, spike_end))
    spike_span = spike_end - spike_start
    spike_arrival_rate = spike_arrivals / spike_span
    base_arrival_rate = ((result.arrivals - spike_arrivals)
                         / (duration - spike_span))

    accounted = (result.completed + result.failed
                 + result.shed_client_total)
    spike_sheds = sheds_in(spike_start, recover_at)
    pre_sheds = sheds_in(0.0, spike_start)
    late_sheds = sheds_in(recover_at, duration + 1.0)
    checks: List[Check] = [
        ("conservation", accounted == result.arrivals,
         f"{result.arrivals} arrivals = {result.completed} completed + "
         f"{result.failed} failed + {result.shed_client_total} shed"),
        ("oracle-match", mismatches == 0,
         f"{mismatches} completed answers disagreed with the tree"),
        ("fault-fired:spike-arrivals",
         spike_arrival_rate > 3.0 * max(base_arrival_rate, 1.0),
         f"spike arrival rate {spike_arrival_rate / 1e3:.0f}k/s vs base "
         f"{base_arrival_rate / 1e3:.0f}k/s"),
        ("fault-fired:client-shed", spike_sheds > 0,
         f"{spike_sheds} front-end sheds during the spike "
         f"(watermark {traffic.queue_watermark}, window {traffic.window})"),
        ("fault-fired:server-shed", result.server_shed > 0,
         f"server overload guard dropped {result.server_shed} requests "
         f"(max_queue_depth={cfg.max_queue_depth})"),
        ("no-shed-before-spike", pre_sheds == 0,
         f"{pre_sheds} client sheds before t={spike_start * 1e3:.2f}ms"),
        ("shedding-stopped", late_sheds == 0,
         f"{late_sheds} client sheds after "
         f"t={recover_at * 1e3:.2f}ms (drain margin "
         f"{RECOVERY_MARGIN_S * 1e6:.0f}us)"),
        # The workload itself is the fault here, so both phases must
        # have been observed: a missing sample fails instead of passing
        # vacuously.
        recovery_check((j.t_done for j in jobs if j.status == OK),
                       recover_at, vacuous_ok=False),
    ]
    counters = {
        "arrivals": result.arrivals,
        "completed": result.completed,
        "failed": result.failed,
        "shed-window": result.shed_window,
        "shed-watermark": result.shed_watermark,
        "shed-admission": result.shed_admission,
        "server-requests-shed": result.server_shed,
        "retries": run.total("request_retries"),
    }
    return run.report(result.arrivals, result.completed, mismatches,
                      counters, checks, lines)
