"""Named chaos scenarios: faults + end-to-end invariants.

Each scenario pairs a :class:`~repro.faults.plan.FaultPlan` with a small,
self-contained simulated cluster (server, fast-messaging workers,
heartbeats, adaptive clients with retries and circuit breakers) and a
read-only search workload whose ground truth is the server tree itself —
``tree.search(rect)`` is a pure function, so every response a client
accepts can be checked exactly against the oracle.

After the run, scenario-independent invariants are evaluated:

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
  happened (its injector counter advanced), so a green run can not be a
  run in which the fault silently failed to inject.

Everything is driven from seeded named streams
(:class:`~repro.sim.rng.RngRegistry`), so a scenario's
:meth:`ScenarioReport.fingerprint` is bit-identical across replays at
the same seed — that property is itself under test (``repro chaos`` and
``tests/test_chaos.py``).
"""

from __future__ import annotations

import hashlib
import importlib
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from ..client.adaptive import AdaptiveParams
from ..client.base import ClientStats, OP_SEARCH, Request
from ..client.fm_client import FmSession
from ..client.node_cache import NodeCache, NodeCacheConfig
from ..client.offload_client import OffloadEngine, OffloadError
from ..client.resilience import (
    BreakerParams,
    CircuitBreaker,
    RequestTimeoutError,
    RetryPolicy,
)
from ..hw.host import Host
from ..msg.ringbuffer import DEFAULT_RING_CAPACITY
from ..net.fabric import IB_100G, Network
from ..rtree.geometry import Rect
from ..runtime.policy import Algorithm1Policy
from ..runtime.session import PolicySession
from ..server.base import RTreeServer
from ..server.fast_messaging import EVENT, FastMessagingServer
from ..server.heartbeat import HeartbeatService
from ..sim.kernel import SimulationError, Simulator, all_of
from ..sim.rng import RngRegistry
from ..workloads.datasets import uniform_dataset
from .injector import FaultInjector
from .plan import (
    BOTH,
    ClientStall,
    FaultPlan,
    HeartbeatBlackout,
    LinkFault,
    NicReadStall,
    TX,
    WorkerCrash,
    WriteStorm,
)


@dataclass(frozen=True)
class ChaosConfig:
    """Tunables shared by every scenario (overridable per scenario/CLI).

    The timing is deliberately compressed relative to the paper's
    figures: a single fault window ``[fault_start, fault_end)`` sits in
    the middle of the request stream so that every run has a clean
    pre-fault, in-fault and post-fault phase for the recovery invariant.
    The retry deadline is a small multiple of the fault-free request
    latency and much shorter than the fault window, so deadlines and
    retries are genuinely exercised (a request stuck behind a crashed
    worker times out and re-sends *during* the outage, not after it).
    """

    seed: int = 0
    n_clients: int = 4
    requests_per_client: int = 300
    dataset_size: int = 2000
    max_entries: int = 16
    server_cores: int = 4
    ring_capacity: int = DEFAULT_RING_CAPACITY
    #: Query rectangle edge (uniform centres over the unit square).
    query_scale: float = 0.03

    #: The fault window every scenario's plan is built around.
    fault_start: float = 0.2e-3
    fault_end: float = 0.9e-3

    heartbeat_interval: float = 0.1e-3
    #: Low threshold so clients offload eagerly — both paths stay hot.
    adaptive: AdaptiveParams = AdaptiveParams(N=4, T=0.05, Inv=0.1e-3)
    retry: RetryPolicy = RetryPolicy(
        deadline_s=0.3e-3, max_attempts=6, backoff_base_s=20e-6
    )
    breaker: BreakerParams = BreakerParams(
        failure_threshold=2, cooldown_s=0.2e-3, cooldown_factor=2.0,
        max_cooldown_s=2e-3,
    )
    stale_after_missing: int = 2
    max_queue_depth: Optional[int] = None

    #: Tight offload budgets: a write storm produces OffloadErrors in
    #: microseconds instead of grinding through the default budget.
    engine_read_retries: int = 4
    engine_search_restarts: int = 3

    #: Client-side node cache under faults (None = seed behaviour; the
    #: chaos golden fingerprints are pinned on None).  Enabling it runs
    #: every scenario's oracle/invariant checks against cache-served
    #: traversals — the write-storm scenario is the cache's adversarial
    #: exactness test.
    node_cache: Optional[NodeCacheConfig] = None

    #: Simulated-time ceiling for one scenario (wedges fail, not hang).
    time_limit: float = 0.05
    #: Extra simulated time after the last driver finishes, letting
    #: late/suppressed segments drain before invariants are read.
    grace_s: float = 0.5e-3
    #: ``post_rate >= recovery_floor * pre_rate`` for recovery to hold.
    recovery_floor: float = 0.3

    @property
    def total_requests(self) -> int:
        return self.n_clients * self.requests_per_client


@dataclass(frozen=True)
class ChaosScenario:
    """A named fault plan plus what must demonstrably fire."""

    name: str
    summary: str
    #: The injector's plan on the single-server ``_Cluster``; None for a
    #: scenario with its own ``runner`` (which plans its own faults, or
    #: whose workload *is* the fault).
    build_plan: Optional[Callable[[ChaosConfig], FaultPlan]] = None
    #: ChaosConfig overrides this scenario needs, as (field, value).
    tweaks: Tuple[Tuple[str, object], ...] = ()
    #: Injection counters (keys of ``_FIRED_COUNTERS``) that must be > 0.
    fired_checks: Tuple[str, ...] = ()
    #: Custom harness: when set, :func:`run_scenario` hands the resolved
    #: config to this callable instead of the single-server ``_Cluster``
    #: (the sharded scenarios bring their own cluster and invariants).
    runner: Optional[Callable[[ChaosConfig], "ScenarioReport"]] = None


# -- the scenario registry ---------------------------------------------------

def _link_loss_plan(cfg: ChaosConfig) -> FaultPlan:
    return FaultPlan((
        LinkFault(cfg.fault_start, cfg.fault_end, direction=BOTH,
                  loss_prob=0.3, retransmit_delay_s=30e-6),
    ))


def _latency_spike_plan(cfg: ChaosConfig) -> FaultPlan:
    return FaultPlan((
        LinkFault(cfg.fault_start, cfg.fault_end, direction=TX,
                  extra_latency_s=60e-6),
    ))


def _nic_stall_plan(cfg: ChaosConfig) -> FaultPlan:
    return FaultPlan((
        NicReadStall(cfg.fault_start, cfg.fault_end, host="server",
                     stall_s=10e-6),
    ))


def _worker_crash_plan(cfg: ChaosConfig) -> FaultPlan:
    return FaultPlan((WorkerCrash(cfg.fault_start, cfg.fault_end),))


def _blackout_plan(cfg: ChaosConfig) -> FaultPlan:
    return FaultPlan((HeartbeatBlackout(cfg.fault_start, cfg.fault_end),))


def _write_storm_plan(cfg: ChaosConfig) -> FaultPlan:
    # The hold must outlast a full offload retry budget (~36us with the
    # chaos engine budgets) or every search squeaks through on the gap.
    return FaultPlan((
        WriteStorm(cfg.fault_start, cfg.fault_end, hold_s=250e-6,
                   gap_s=8e-6),
    ))


def _slow_client_plan(cfg: ChaosConfig) -> FaultPlan:
    return FaultPlan((
        ClientStall(cfg.fault_start, cfg.fault_end, client_ids=(0, 1),
                    stall_s=0.15e-3),
    ))


def _deferred(module: str, name: str) -> Callable[[ChaosConfig],
                                                    "ScenarioReport"]:
    """A custom harness imported on first use: ``repro.shard`` and
    ``repro.traffic`` build on the cluster layer, which imports
    ``repro.faults`` — a module-level import here would be a cycle."""
    def run(cfg: ChaosConfig) -> "ScenarioReport":
        runner = getattr(importlib.import_module(module, __package__), name)
        return runner(cfg)
    return run


def _combo_plan(cfg: ChaosConfig) -> FaultPlan:
    start, end = cfg.fault_start, cfg.fault_end
    third = (end - start) / 3.0
    return FaultPlan((
        LinkFault(start, end, direction=BOTH, loss_prob=0.15,
                  retransmit_delay_s=30e-6),
        HeartbeatBlackout(start, start + 2 * third),
        WorkerCrash(start + third, end, conn_ids=(0,)),
        NicReadStall(start + third, end, host="server", stall_s=5e-6),
    ))


SCENARIOS: Dict[str, ChaosScenario] = {
    s.name: s for s in (
        ChaosScenario(
            "link-loss",
            "30% packet loss on the server link; retransmit delays",
            _link_loss_plan,
            fired_checks=("packets-dropped",),
        ),
        ChaosScenario(
            "latency-spike",
            "flat +60us on every server->client transfer",
            _latency_spike_plan,
            fired_checks=("latency-injected",),
        ),
        ChaosScenario(
            "nic-read-stall",
            "server NIC adds 10us to every one-sided read it serves",
            _nic_stall_plan,
            fired_checks=("nic-stalls",),
        ),
        ChaosScenario(
            "worker-crash",
            "all server workers fail-stop for the window, then restart",
            _worker_crash_plan,
            fired_checks=("workers-crashed", "workers-restarted",
                          "duplicates-suppressed"),
        ),
        ChaosScenario(
            "heartbeat-blackout",
            "the heartbeat service sends nothing for the window",
            _blackout_plan,
            fired_checks=("beats-blacked-out",),
        ),
        ChaosScenario(
            "write-storm",
            "forced torn windows on the root; offload trips the breaker",
            _write_storm_plan,
            fired_checks=("write-storms", "breaker-trips", "failovers"),
        ),
        ChaosScenario(
            "overload-shed",
            "worker crash + queue-depth cap: stale backlog is shed",
            _worker_crash_plan,
            tweaks=(("max_queue_depth", 1),),
            fired_checks=("workers-crashed", "requests-shed"),
        ),
        ChaosScenario(
            "slow-client",
            "clients 0/1 pause 150us before each request in the window",
            _slow_client_plan,
            fired_checks=("client-stalls",),
        ),
        ChaosScenario(
            "shard-loss",
            "one shard of a 4-shard cluster fail-stops; router degrades "
            "to partial results",
            # The total retry budget (attempts x per-attempt deadline)
            # must exhaust *inside* the outage, or every request to the
            # dead shard blocks until the restart drain answers it and
            # the loss is never client-visible.
            tweaks=(
                ("retry", RetryPolicy(deadline_s=0.15e-3, max_attempts=2,
                                      backoff_base_s=20e-6)),
            ),
            runner=_deferred("..shard.chaos", "run_shard_loss"),
        ),
        ChaosScenario(
            "flash-crowd",
            "open-loop arrival spike; mux watermark and the server "
            "overload guard shed, then recover",
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
            runner=_deferred("..traffic.chaos", "run_flash_crowd"),
        ),
        ChaosScenario(
            "rebalance-under-fault",
            "skewed reads drive tile splits + live migration on a lossy "
            "link; the epoch-cut protocol must stay exactly-once",
            runner=_deferred("..shard.chaos", "run_rebalance_under_fault"),
        ),
        ChaosScenario(
            "migration-racing-writes",
            "hybrid writes race live migration windows; conservation "
            "(no lost or duplicated item) must hold after settling",
            runner=_deferred("..shard.chaos", "run_migration_racing_writes"),
        ),
        ChaosScenario(
            "chaos-combo",
            "loss + heartbeat blackout + one crashed worker + NIC stalls",
            _combo_plan,
            fired_checks=("packets-dropped", "beats-blacked-out",
                          "workers-crashed"),
        ),
    )
}


# -- the harness -------------------------------------------------------------

class _Cluster:
    """One scenario's simulated stack (built fresh per run)."""

    def __init__(self, cfg: ChaosConfig, plan: FaultPlan):
        self.cfg = cfg
        sim = self.sim = Simulator()
        rngs = self.rngs = RngRegistry(cfg.seed)
        self.injector = FaultInjector(sim, plan, rng=rngs.stream("faults"))

        net = self.net = Network(sim, IB_100G)
        server_host = Host(sim, "server", IB_100G, cores=cfg.server_cores)
        net.attach_server(server_host)
        self.injector.attach_network(net)
        self.injector.attach_host(server_host)

        self.server = RTreeServer(
            sim, server_host,
            uniform_dataset(cfg.dataset_size, seed=cfg.seed),
            max_entries=cfg.max_entries,
        )
        self.fm_server = FastMessagingServer(
            sim, self.server, net, mode=EVENT,
            ring_capacity=cfg.ring_capacity,
            max_queue_depth=cfg.max_queue_depth,
        )
        cache_enabled = (cfg.node_cache is not None
                         and cfg.node_cache.enabled)
        self.heartbeats = HeartbeatService(
            sim, server_host.cpu.window_utilization,
            interval=cfg.heartbeat_interval,
            mut_seq_fn=((lambda: self.server.tree.mut_hwm)
                        if cache_enabled else None),
        )
        self.injector.attach_heartbeats(self.heartbeats)

        self.stats: List[ClientStats] = []
        self.sessions: List[PolicySession] = []
        self.breakers: List[CircuitBreaker] = []
        for i in range(cfg.n_clients):
            crngs = rngs.fork(f"client-{i}")
            host = Host(sim, f"chaos-c{i}", IB_100G, cores=2)
            conn = self.fm_server.open_connection(host)
            stats = ClientStats()
            fm = FmSession(sim, conn, i, stats, retry=cfg.retry,
                           rng=crngs.stream("retry"))
            self.heartbeats.subscribe(
                conn.response_ring,
                lambda hb, conn=conn: conn.server_post_response(hb),
            )
            engine = OffloadEngine(
                sim, conn.client_end, self.server.offload_descriptor(),
                self.server.costs, stats,
                max_read_retries=cfg.engine_read_retries,
                max_search_restarts=cfg.engine_search_restarts,
            )
            if cache_enabled:
                cache = NodeCache(cfg.node_cache)
                engine.attach_cache(cache)
                conn.mailbox.attach_hint_sink(cache.apply_hint)
            breaker = CircuitBreaker(sim, cfg.breaker)
            session = PolicySession(
                sim, fm, engine, stats,
                Algorithm1Policy(
                    sim, fm.mailbox, params=cfg.adaptive,
                    rng=crngs.stream("adaptive"),
                    stale_after_missing=cfg.stale_after_missing,
                ),
                breaker=breaker,
            )
            self.stats.append(stats)
            self.breakers.append(breaker)
            self.sessions.append(session)

        self.heartbeats.start()
        self.injector.start(
            fm_server=self.fm_server,
            storm_targets=lambda: [self.server.tree.root],
        )

    def workload(self, client_id: int) -> List[Request]:
        cfg = self.cfg
        rng = self.rngs.fork(f"client-{client_id}").stream("workload")
        edge = cfg.query_scale
        requests = []
        for _ in range(cfg.requests_per_client):
            x = rng.uniform(0.0, 1.0 - edge)
            y = rng.uniform(0.0, 1.0 - edge)
            requests.append(
                Request(OP_SEARCH, Rect(x, y, x + edge, y + edge))
            )
        return requests


#: ``fired_checks`` vocabulary: counter-name -> reader over the cluster.
_FIRED_COUNTERS: Dict[str, Callable[[_Cluster], int]] = {
    "packets-dropped": lambda c: int(c.injector.packets_dropped),
    "latency-injected": lambda c: int(c.injector.latency_injections),
    "nic-stalls": lambda c: int(c.injector.nic_stalls_injected),
    "beats-blacked-out": lambda c: int(c.injector.beats_blacked_out),
    "client-stalls": lambda c: int(c.injector.client_stalls_injected),
    "write-storms": lambda c: int(c.injector.write_storm_windows),
    "workers-crashed": lambda c: int(c.fm_server.workers_crashed),
    "workers-restarted": lambda c: int(c.fm_server.workers_restarted),
    "requests-shed": lambda c: int(c.fm_server.requests_shed),
    "breaker-trips": lambda c: sum(int(b.trips) for b in c.breakers),
    "failovers": lambda c: sum(
        int(s.policy.offload_failovers) for s in c.sessions
    ),
    "duplicates-suppressed": lambda c: sum(
        int(s.duplicates_suppressed) for s in c.stats
    ),
}


@dataclass
class ScenarioReport:
    """Everything ``repro chaos`` prints (and the tests assert on)."""

    name: str
    seed: int
    issued: int
    completed: int
    timeouts: int
    offload_errors: int
    mismatches: int
    retries: int
    duplicates_suppressed: int
    unexpected_messages: int
    pre_rate: float
    post_rate: float
    end_time: float
    counters: Dict[str, int] = field(default_factory=dict)
    invariants: List[Tuple[str, bool, str]] = field(default_factory=list)
    _fingerprint: str = ""

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.invariants)

    @property
    def failures(self) -> List[str]:
        return [f"{name}: {detail}"
                for name, passed, detail in self.invariants if not passed]

    def fingerprint(self) -> str:
        """Stable digest of the run's observable outcome (replay check)."""
        return self._fingerprint

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


# -- the scaffold every scenario runner shares --------------------------------
#
# The single-server harness below and the deployment-driven scenarios in
# ``repro.shard.chaos`` / ``repro.traffic.chaos`` all run to a limit,
# sum the same client counters, judge recovery the same way and digest
# their records the same way; only the records and invariants differ.

def run_to_limit(sim: Simulator, drive: Callable[[float], object],
                 cfg: ChaosConfig) -> bool:
    """``drive(limit)`` up to the scenario's time ceiling, then let the
    grace period drain late/suppressed segments.  False when the drivers
    were still running at the ceiling (a wedge fails, it does not hang).
    """
    finished = True
    try:
        drive(cfg.time_limit)
    except SimulationError:
        finished = False
    sim.run(until=sim.now + cfg.grace_s)
    return finished


def client_totals(stats_list) -> Dict[str, int]:
    """The client-side totals of a :class:`ScenarioReport`, summed over
    every endpoint's :class:`~repro.client.base.ClientStats`."""
    return {
        "retries": sum(int(s.request_retries) for s in stats_list),
        "duplicates_suppressed": sum(
            int(s.duplicates_suppressed) for s in stats_list
        ),
        "unexpected_messages": sum(
            int(s.unexpected_messages) for s in stats_list
        ),
    }


def completion_rates(done_times: List[float], fault_start: float,
                     recovered_at: float) -> Tuple[float, float]:
    """Completions per second before ``fault_start`` and from
    ``recovered_at`` to the last completion (0.0 without a sample)."""
    times = sorted(done_times)
    pre = [t for t in times if t < fault_start]
    post = [t for t in times if t >= recovered_at]
    pre_rate = len(pre) / fault_start if pre else 0.0
    post_span = (times[-1] - recovered_at) if post else 0.0
    post_rate = len(post) / post_span if post_span > 0.0 else 0.0
    return pre_rate, post_rate


def finished_check(finished: bool, now: float,
                   limit: float) -> Tuple[str, bool, str]:
    return (
        "finished-in-time", finished,
        f"drivers {'finished' if finished else 'still running'} at "
        f"t={now * 1e3:.3f}ms (limit {limit * 1e3:.0f}ms)",
    )


def recovery_check(cfg: ChaosConfig, pre_rate: float, post_rate: float,
                   vacuous_ok: bool = True) -> Tuple[str, bool, str]:
    """``post_rate >= recovery_floor * pre_rate``.  Without a sample on
    both sides the check is vacuous: that passes for an injected fault
    (the run may simply be shorter than the window) but not where the
    workload itself is the fault and both phases must have been seen.
    """
    if pre_rate > 0.0 and post_rate > 0.0:
        recovered = post_rate >= cfg.recovery_floor * pre_rate
        detail = (f"post {post_rate / 1e3:.0f} kops vs pre "
                  f"{pre_rate / 1e3:.0f} kops "
                  f"(floor {cfg.recovery_floor:.0%})")
    else:
        recovered = vacuous_ok
        detail = "vacuous (no pre- or post-fault sample)"
    return ("throughput-recovered", recovered, detail)


def record_fingerprint(header: str, lines, counters) -> str:
    """The replay digest: a header, one line per record (in the
    caller's canonical order), then ``(name, value)`` counter pairs."""
    digest = hashlib.sha256()
    digest.update(f"{header}\n".encode())
    for line in lines:
        digest.update(f"{line}\n".encode())
    for key, value in counters:
        digest.update(f"{key}={value}\n".encode())
    return digest.hexdigest()[:16]


def _invariants(cfg: ChaosConfig, scenario: ChaosScenario,
                report: ScenarioReport, finished: bool,
                cluster: _Cluster) -> List[Tuple[str, bool, str]]:
    checks: List[Tuple[str, bool, str]] = [
        finished_check(finished, report.end_time, cfg.time_limit),
    ]
    checks.append((
        "completed", report.completed == report.issued,
        f"{report.completed}/{report.issued} requests "
        f"({report.timeouts} timeouts, {report.offload_errors} "
        f"offload errors escaped)",
    ))
    checks.append((
        "oracle-match", report.mismatches == 0,
        f"{report.mismatches} responses disagreed with the tree",
    ))
    checks.append((
        "exactly-once", report.unexpected_messages == 0,
        f"{report.unexpected_messages} unattributable messages "
        f"({report.duplicates_suppressed} late answers suppressed)",
    ))
    retry_budget = report.issued * (cfg.retry.max_attempts - 1)
    checks.append((
        "bounded-retries", report.retries <= retry_budget,
        f"{report.retries} retries <= budget {retry_budget}",
    ))
    checks.append(recovery_check(cfg, report.pre_rate, report.post_rate))
    for key in scenario.fired_checks:
        value = _FIRED_COUNTERS[key](cluster)
        checks.append((
            f"fault-fired:{key}", value > 0, f"counter = {value}",
        ))
    return checks


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
    cfg = config if config is not None else ChaosConfig()
    cfg = replace(cfg, seed=seed)
    if scenario.tweaks:
        cfg = replace(cfg, **dict(scenario.tweaks))
    if overrides:
        cfg = replace(cfg, **overrides)

    if scenario.runner is not None:
        return scenario.runner(cfg)

    cluster = _Cluster(cfg, scenario.build_plan(cfg))
    sim = cluster.sim
    workloads = [cluster.workload(i) for i in range(cfg.n_clients)]
    # (client_id, index, completion time, sorted matching data ids)
    records: List[Tuple[int, int, float, Tuple[int, ...]]] = []
    errors: List[Tuple[int, int, str]] = []

    def driver(client_id: int):
        session = cluster.sessions[client_id]
        for index, request in enumerate(workloads[client_id]):
            stall = cluster.injector.client_stall(client_id)
            if stall > 0.0:
                yield sim.timeout(stall)
            try:
                matches = yield from session.execute(request)
            except RequestTimeoutError:
                errors.append((client_id, index, "timeout"))
                continue
            except OffloadError:
                errors.append((client_id, index, "offload-error"))
                continue
            ids = tuple(sorted(data_id for _rect, data_id in matches))
            records.append((client_id, index, sim.now, ids))

    drivers = [sim.process(driver(i), name=f"chaos-driver-{i}")
               for i in range(cfg.n_clients)]
    finished = run_to_limit(
        sim,
        lambda limit: sim.run_until_triggered(all_of(sim, drivers),
                                              limit=limit),
        cfg,
    )

    # The workload is read-only (and write storms only toggle versions),
    # so the tree is still the ground truth for every query.
    mismatches = 0
    for client_id, index, _t, ids in records:
        rect = workloads[client_id][index].rect
        expected = tuple(sorted(
            cluster.server.tree.search(rect).data_ids
        ))
        if ids != expected:
            mismatches += 1

    pre_rate, post_rate = completion_rates(
        [t for _c, _i, t, _ids in records], cfg.fault_start, cfg.fault_end,
    )

    timeouts = sum(1 for _c, _i, kind in errors if kind == "timeout")
    report = ScenarioReport(
        name=name,
        seed=cfg.seed,
        issued=cfg.total_requests,
        completed=len(records),
        timeouts=timeouts,
        offload_errors=len(errors) - timeouts,
        mismatches=mismatches,
        pre_rate=pre_rate,
        post_rate=post_rate,
        end_time=sim.now,
        counters={key: reader(cluster)
                  for key, reader in _FIRED_COUNTERS.items()},
        **client_totals(cluster.stats),
    )
    report.invariants = _invariants(cfg, scenario, report, finished,
                                    cluster)

    report._fingerprint = record_fingerprint(
        f"{name}:{cfg.seed}",
        [f"{client_id},{index},{t:.15e},{len(ids)},{sum(ids)}"
         for client_id, index, t, ids in sorted(records)]
        + [f"err,{client_id},{index},{kind}"
           for client_id, index, kind in sorted(errors)],
        report.counters.items(),
    )
    return report
