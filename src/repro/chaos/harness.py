"""What every chaos scenario shares: config, row, report, common checks.

A scenario is one :class:`Scenario` row: the
:class:`~repro.cluster.config.ExperimentConfig` it runs (carrying its own
fault plan, shard count, rebalance or traffic block) and a *judge* that
reads the driven runner.  Nothing here builds a cluster —
:func:`repro.chaos.scenarios.run_scenario` gets its runner from the same
dispatch ``run_experiment`` uses.

The checks most scenarios make:

* **finished-in-time** — the drivers were done before the time ceiling
  (a wedge fails, it does not hang);
* **completed** — every issued request finished (retries recovered every
  injected loss; nothing timed out for good or leaked an OffloadError);
* **oracle-match** — every accepted result equals the tree's answer;
* **exactly-once** — no client saw a response it could not attribute
  (late answers to abandoned attempts are *suppressed*, never delivered);
* **bounded-retries** — the retry volume stayed within the per-request
  budget (no retry storm);
* **throughput-recovered** — the post-fault completion rate came back to
  a floor fraction of the pre-fault rate;
* **fault-fired:<x>** — per scenario, the injected fault demonstrably
  happened (its counter advanced), so a green run can not be a run in
  which the fault silently failed to inject.

Everything is driven from seeded named streams
(:class:`~repro.sim.rng.RngRegistry`), so a scenario's
:meth:`ScenarioReport.fingerprint` is bit-identical across replays at
the same seed — that property is itself under test (``repro chaos`` and
``tests/test_chaos.py``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..client.adaptive import AdaptiveParams
from ..client.node_cache import NodeCacheConfig
from ..client.resilience import BreakerParams, RetryPolicy
from ..cluster.config import ExperimentConfig
from ..workloads.mixes import WorkloadFn

# The timing is deliberately compressed relative to the paper's figures:
# a single fault window ``[FAULT_START, FAULT_END)`` sits in the middle of
# the request stream so that every run has a clean pre-fault, in-fault
# and post-fault phase for the recovery invariant.  No caller or scenario
# ever asked for another value of the constants below, so they are not
# options.

#: The fault window every scenario's plan is built around.
FAULT_START = 0.2e-3
FAULT_END = 0.9e-3
#: Query rectangle edge (uniform centres over the unit square).
QUERY_SCALE = 0.03
HEARTBEAT_INTERVAL = 0.1e-3
#: Low threshold so clients offload eagerly — both paths stay hot.
ADAPTIVE = AdaptiveParams(N=4, T=0.05, Inv=0.1e-3)
BREAKER = BreakerParams(
    failure_threshold=2, cooldown_s=0.2e-3, cooldown_factor=2.0,
    max_cooldown_s=2e-3,
)
STALE_AFTER_MISSING = 2
#: Simulated-time ceiling for one scenario (wedges fail, not hang).
TIME_LIMIT = 0.05
#: Extra simulated time after the last driver finishes, letting
#: late/suppressed segments drain before invariants are read.
GRACE_S = 0.5e-3
#: ``post_rate >= RECOVERY_FLOOR * pre_rate`` for recovery to hold.
RECOVERY_FLOOR = 0.3

#: The retry deadline is a small multiple of the fault-free request
#: latency and much shorter than the fault window, so deadlines and
#: retries are genuinely exercised (a request stuck behind a crashed
#: worker times out and re-sends *during* the outage, not after it).
DEFAULT_RETRY = RetryPolicy(
    deadline_s=0.3e-3, max_attempts=6, backoff_base_s=20e-6
)


@dataclass(frozen=True)
class ChaosConfig:
    """The sizing and guards a caller or a scenario's tweaks may set."""

    seed: int = 0
    n_clients: int = 4
    requests_per_client: int = 300
    dataset_size: int = 2000
    max_entries: int = 16
    server_cores: int = 4
    retry: RetryPolicy = DEFAULT_RETRY
    max_queue_depth: Optional[int] = None
    #: Client-side node cache under faults (None = seed behaviour; the
    #: chaos golden fingerprints are pinned on None).  Enabling it runs
    #: every scenario's oracle/invariant checks against cache-served
    #: traversals — the write-storm scenario is the cache's adversarial
    #: exactness test.
    node_cache: Optional[NodeCacheConfig] = None

    @property
    def total_requests(self) -> int:
        return self.n_clients * self.requests_per_client


def base_config(cfg: ChaosConfig, **shape) -> ExperimentConfig:
    """The one ``ChaosConfig`` -> ``ExperimentConfig`` mapping; ``shape``
    is what a scenario adds or overrides (scheme, workload, fault plan,
    shard count, rebalance, traffic)."""
    fields: Dict[str, Any] = dict(
        scheme="catfish",
        fabric="ib-100g",
        n_clients=cfg.n_clients,
        requests_per_client=cfg.requests_per_client,
        scale=str(QUERY_SCALE),
        dataset_size=cfg.dataset_size,
        max_entries=cfg.max_entries,
        server_cores=cfg.server_cores,
        adaptive=ADAPTIVE,
        heartbeat_interval=HEARTBEAT_INTERVAL,
        seed=cfg.seed,
        retry=cfg.retry,
        breaker=BREAKER,
        stale_after_missing=STALE_AFTER_MISSING,
        max_queue_depth=cfg.max_queue_depth,
        node_cache=cfg.node_cache,
    )
    fields.update(shape)
    return ExperimentConfig(**fields)


#: One invariant: (name, passed, human-readable detail).
Check = Tuple[str, bool, str]


@dataclass(frozen=True)
class Scenario:
    """One registry row.  Every scenario has these fields and no other:
    what differs between scenarios lives in ``config`` and ``judge``."""

    name: str
    summary: str
    #: The deployment the scenario runs, faults included.
    config: Callable[[ChaosConfig], ExperimentConfig]
    judge: Callable[[Run], ScenarioReport]
    #: ChaosConfig overrides this scenario needs, as (field, value).
    tweaks: Tuple[Tuple[str, object], ...] = ()
    #: Closed-loop request streams replacing ``config.workload_kind``.
    workload: Optional[Callable[[ChaosConfig], WorkloadFn]] = None


@dataclass
class ScenarioReport:
    """Everything ``repro chaos`` prints (and the tests assert on)."""

    name: str
    seed: int
    issued: int
    completed: int
    mismatches: int
    retries: int
    duplicates_suppressed: int
    counters: Dict[str, int]
    invariants: List[Check]
    digest: str

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.invariants)

    @property
    def failures(self) -> List[str]:
        return [f"{name}: {detail}"
                for name, passed, detail in self.invariants if not passed]

    def fingerprint(self) -> str:
        """Stable digest of the run's observable outcome (replay check)."""
        return self.digest

    @staticmethod
    def header() -> str:
        return (f"{'scenario':<20} {'ok':>4} {'done':>9} {'retry':>6} "
                f"{'dup':>5} {'fail':>5}  invariants")

    def row(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        bad = len(self.failures)
        return (f"{self.name:<20} {status:>4} "
                f"{self.completed:>4}/{self.issued:<4} {self.retries:>6} "
                f"{self.duplicates_suppressed:>5} {bad:>5}  "
                f"{len(self.invariants)} checked")

    def describe(self) -> List[str]:
        """One line per invariant, pass/fail plus detail."""
        lines = []
        for name, passed, detail in self.invariants:
            mark = "ok  " if passed else "FAIL"
            lines.append(f"  [{mark}] {name}: {detail}")
        return lines


@dataclass
class Run:
    """What a judge reads: the resolved config and the runner after it
    was driven to the limit, given its grace period and settled."""

    name: str
    cfg: ChaosConfig
    #: The plain, routed or open-loop runner ``build_runner`` returned —
    #: a scenario's judge knows which, because its config asked for it.
    runner: Any
    #: False when the drivers were still running at the time ceiling.
    finished: bool

    def total(self, counter: str) -> int:
        """One :class:`~repro.client.base.ClientStats` counter, summed
        over every endpoint."""
        return sum(getattr(stats, counter)
                   for stats in self.runner.deployment.client_stats)

    def report(self, issued: int, completed: int, mismatches: int,
               counters: Dict[str, int], checks: List[Check],
               lines: Iterable[str]) -> ScenarioReport:
        """Seal the judge's reading.  ``lines`` — a header, then one
        line per record in the scenario's canonical order — and the
        counters, in the order given, are the replay digest's input."""
        finished = (
            "finished-in-time", self.finished,
            f"drivers {'finished' if self.finished else 'still running'} "
            f"at t={self.runner.sim.now * 1e3:.3f}ms "
            f"(limit {TIME_LIMIT * 1e3:.0f}ms)",
        )
        digest = hashlib.sha256()
        for line in lines:
            digest.update(f"{line}\n".encode())
        for key, value in counters.items():
            digest.update(f"{key}={value}\n".encode())
        return ScenarioReport(
            name=self.name, seed=self.cfg.seed, issued=issued,
            completed=completed, mismatches=mismatches,
            retries=self.total("request_retries"),
            duplicates_suppressed=self.total("duplicates_suppressed"),
            counters=counters, invariants=[finished] + checks,
            digest=digest.hexdigest()[:16],
        )


def recovery_check(done_times: Iterable[float],
                   recovered_at: float = FAULT_END,
                   vacuous_ok: bool = True) -> Check:
    """Completions per second from ``recovered_at`` to the last one must
    reach ``RECOVERY_FLOOR`` of the rate before ``FAULT_START``.  Without
    a sample on both sides the check is vacuous: that passes for an
    injected fault (the run may simply be shorter than the window) but
    not where the workload itself is the fault and both phases must have
    been seen.
    """
    times = sorted(done_times)
    pre = [t for t in times if t < FAULT_START]
    post = [t for t in times if t >= recovered_at]
    post_span = (times[-1] - recovered_at) if post else 0.0
    if pre and post_span > 0.0:
        pre_rate, post_rate = len(pre) / FAULT_START, len(post) / post_span
        recovered = post_rate >= RECOVERY_FLOOR * pre_rate
        detail = (f"post {post_rate / 1e3:.0f} kops vs pre "
                  f"{pre_rate / 1e3:.0f} kops "
                  f"(floor {RECOVERY_FLOOR:.0%})")
    else:
        recovered = vacuous_ok
        detail = "vacuous (no pre- or post-fault sample)"
    return ("throughput-recovered", recovered, detail)


def fired_check(key: str, value: int) -> Check:
    return (f"fault-fired:{key}", value > 0, f"counter = {value}")
