"""The single-server record shape: adaptive clients on one Catfish server.

Nine scenarios run the stock ``catfish`` deployment — one server,
fast-messaging workers, heartbeats, Algorithm 1 clients with retries and
circuit breakers — under a :class:`~repro.faults.plan.FaultPlan`, with a
read-only search workload whose ground truth is the server tree itself:
``tree.search(rect)`` is a pure function, so every response a client
accepts is checked exactly against the oracle.  The records are the
closed-loop driver's own per-client logs.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Tuple

from ..client.base import OP_SEARCH, Request
from ..client.resilience import RequestTimeoutError
from ..faults.plan import FaultPlan
from ..rtree.geometry import Rect
from ..workloads.mixes import WorkloadFn
from .harness import (
    QUERY_SCALE,
    ChaosConfig,
    Check,
    Run,
    Scenario,
    ScenarioReport,
    base_config,
    fired_check,
    recovery_check,
)


def fixed_squares(cfg: ChaosConfig) -> WorkloadFn:
    """Searches over squares of one edge length: every query overlaps a
    comparable slice of the dataset, so no phase of a run is made of
    trivially empty answers."""
    edge = QUERY_SCALE

    def workload(_client_id: int, rng: random.Random) -> List[Request]:
        requests = []
        for _ in range(cfg.requests_per_client):
            x = rng.uniform(0.0, 1.0 - edge)
            y = rng.uniform(0.0, 1.0 - edge)
            requests.append(
                Request(OP_SEARCH, Rect(x, y, x + edge, y + edge))
            )
        return requests

    return workload


def _counters(run: Run) -> Dict[str, int]:
    """What a single-server scenario counts — also the vocabulary of
    its ``fault-fired`` checks."""
    runner = run.runner
    injector, fm_server = runner.injector, runner.stack.fm_server
    sessions = runner.sessions
    return {
        "packets-dropped": injector.packets_dropped,
        "latency-injected": injector.latency_injections,
        "nic-stalls": injector.nic_stalls_injected,
        "beats-blacked-out": injector.beats_blacked_out,
        "client-stalls": injector.client_stalls_injected,
        "write-storms": injector.write_storm_windows,
        "workers-crashed": fm_server.workers_crashed,
        "workers-restarted": fm_server.workers_restarted,
        "requests-shed": fm_server.requests_shed,
        "breaker-trips": sum(s.breaker.trips for s in sessions),
        "failovers": sum(s.policy.offload_failovers
                         for s in sessions),
        "duplicates-suppressed": run.total("duplicates_suppressed"),
    }


def judge(*fired: str) -> Callable[[Run], ScenarioReport]:
    """The single-server judge; ``fired`` names the counters that must
    have advanced."""
    def judge_run(run: Run) -> ScenarioReport:
        cfg, runner = run.cfg, run.runner
        # (client_id, index, completion time, sorted matching data ids)
        records: List[Tuple[int, int, float, Tuple[int, ...]]] = []
        errors: List[Tuple[int, int, str]] = []
        mismatches = 0
        # The workload is read-only (and write storms only toggle
        # versions), so the tree is still the ground truth for every
        # query.
        tree = runner.server.tree
        for client_id, log in enumerate(runner.logs):
            for index, request, outcome, t in log:
                if isinstance(outcome, Exception):
                    kind = ("timeout"
                            if isinstance(outcome, RequestTimeoutError)
                            else "offload-error")
                    errors.append((client_id, index, kind))
                    continue
                ids = tuple(sorted(data_id for _rect, data_id in outcome))
                records.append((client_id, index, t, ids))
                if ids != tuple(sorted(tree.search(request.rect).data_ids)):
                    mismatches += 1

        issued, completed = cfg.total_requests, len(records)
        timeouts = sum(1 for _c, _i, kind in errors if kind == "timeout")
        counters = _counters(run)
        retries = run.total("request_retries")
        retry_budget = issued * (cfg.retry.max_attempts - 1)
        unexpected = run.total("unexpected_messages")
        checks: List[Check] = [
            ("completed", completed == issued,
             f"{completed}/{issued} requests ({timeouts} timeouts, "
             f"{len(errors) - timeouts} offload errors escaped)"),
            ("oracle-match", mismatches == 0,
             f"{mismatches} responses disagreed with the tree"),
            ("exactly-once", unexpected == 0,
             f"{unexpected} unattributable messages "
             f"({counters['duplicates-suppressed']} late answers "
             f"suppressed)"),
            ("bounded-retries", retries <= retry_budget,
             f"{retries} retries <= budget {retry_budget}"),
            recovery_check(t for _c, _i, t, _ids in records),
        ]
        checks.extend(fired_check(key, counters[key]) for key in fired)
        return run.report(
            issued, completed, mismatches, counters, checks,
            [f"{run.name}:{cfg.seed}"]
            + [f"{client_id},{index},{t:.15e},{len(ids)},{sum(ids)}"
               for client_id, index, t, ids in sorted(records)]
            + [f"err,{client_id},{index},{kind}"
               for client_id, index, kind in sorted(errors)],
        )
    return judge_run


def judge_write_storm(run: Run) -> ScenarioReport:
    """The storm must fire; that it tore reads of the root until a
    breaker tripped is demanded only while no node cache is on.  A
    cached root is not re-read, so with a cache whether any offload
    errors at all is luck of the back-off draw — not something the
    scenario can guarantee."""
    cached = run.cfg.node_cache is not None
    torn_root = () if cached else ("breaker-trips", "failovers")
    return judge("write-storms", *torn_root)(run)


def row(name: str, summary: str, plan: FaultPlan,
        judge: Callable[[Run], ScenarioReport],
        tweaks: Tuple[Tuple[str, object], ...] = ()) -> Scenario:
    """A single-server scenario: the stock deployment under ``plan``."""
    return Scenario(
        name, summary,
        config=lambda cfg: base_config(cfg, fault_plan=plan),
        judge=judge, tweaks=tweaks, workload=fixed_squares,
    )
