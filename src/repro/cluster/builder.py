"""Run one closed-loop experiment: N synchronous clients on a deployment.

This is the reproduction's equivalent of the paper's test driver: on the
cluster a :class:`~repro.cluster.deployment.Deployment` assembled, it
connects ``n_clients`` independent clients running the chosen scheme,
lets every client issue its request stream back-to-back (each client is
synchronous, as in the paper), and aggregates throughput / latency /
utilization into a :class:`RunResult`.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from ..client.base import OP_SEARCH, ClientStats, Request
from ..client.offload_client import OffloadError
from ..client.resilience import RequestTimeoutError
from ..hw.host import Host
from ..obs import LatencyView, snapshot_document
from ..sim.kernel import all_of
from ..workloads.mixes import batch_runs, make_kv_workload, make_workload
from .config import CLIENT_CORES, ExperimentConfig
from .deployment import Deployment
from .results import RunResult, merge_client_stats
from .schemes import scheme_spec


class ClosedLoopRunner:
    """Drives one :class:`~repro.cluster.deployment.Deployment` with
    ``n_clients`` synchronous clients until every stream is exhausted.

    The two public runners differ only in the endpoint kind they ask the
    deployment for (``routed``) and in the attribute surface they expose;
    construction, execution and result collection live here once.
    """

    #: Plain sessions against one server, or scatter-gather routers.
    routed = False

    def __init__(self, config: ExperimentConfig,
                 record_results: bool = False, workload_fn=None):
        """``workload_fn(client_id, rng)`` replaces the request streams
        the config names (the chaos scenarios bring their own)."""
        self.config = config
        self.deployment = deployment = Deployment(
            config, routed=self.routed, record_results=record_results,
        )
        #: Requests that exhausted their budget (plain endpoints only: a
        #: router degrades to a partial result instead of raising).
        self.requests_failed = 0
        #: With ``record_results``, one ``(index, request, outcome,
        #: finish time)`` log per client.  A router keeps its own
        #: (``routers[i].log``); a plain session has none, so the driver
        #: keeps it here.
        self.logs: Optional[List[list]] = (
            [[] for _ in range(config.n_clients)]
            if record_results and not self.routed else None
        )
        #: What the metrics document calls the request streams.
        self._workload = ("custom" if workload_fn
                          else "kv" if config.index != "rtree"
                          else config.workload_kind)
        self.sim = deployment.sim
        self.rngs = deployment.rngs
        self.metrics = deployment.metrics
        self.tracer = deployment.tracer
        self.profile = deployment.profile
        self.injector = deployment.injector
        self.factory = deployment.factory
        self.client_stats = deployment.client_stats
        #: Simulated time at which the last client finished (throughput
        #: is taken over this, not over any background settling after).
        self.elapsed_s = 0.0
        self._drivers = []
        self._build_clients(workload_fn)
        deployment.start()
        deployment.register_metrics()

    # -- construction ----------------------------------------------------------

    def _build_clients(self, workload_fn=None) -> None:
        config = self.config
        if workload_fn is None and config.index != "rtree":
            workload_fn = make_kv_workload(
                self.deployment.keys, config.kv, config.requests_per_client)
        elif workload_fn is None:
            workload_fn = make_workload(
                config.workload_kind,
                config.scale,
                n_requests=config.requests_per_client,
                insert_fraction=config.insert_fraction,
                queries=config.queries,
            )
        for client_id in range(config.n_clients):
            name = f"client-{client_id}"
            host = Host(self.sim, name, self.profile,
                        cores=CLIENT_CORES)
            stats = ClientStats()
            endpoint = self.deployment.endpoint(client_id, host, stats, name)
            # The workload stream is the same for every deployment
            # shape: the routed-vs-single oracle comparison depends on
            # this line not diverging.
            rng = self.rngs.fork(name).stream("workload")
            requests = workload_fn(client_id, rng)
            log = None if self.logs is None else self.logs[client_id]
            self._drivers.append(self.sim.process(
                self._client_driver(endpoint, requests, stats, client_id,
                                    log),
                name=name,
            ))

    def _client_driver(self, session, requests: List[Request],
                       stats: ClientStats, client_id: int,
                       log: Optional[list]) -> Generator:
        """One synchronous client: issue every request back-to-back.

        A request that exhausts its budget (every retry timed out, or the
        one-sided traversal ran out of restarts with no breaker to fail it
        over) is counted in ``requests_failed`` and the client carries on
        with the next one, as the router and the mux do; it stays out of
        ``requests_sent`` and the latency recorders, which describe
        answered requests.  With a ``log``, every request appends
        ``(index, request, outcome, finish time)`` — the shape a router
        logs — where a failed request's outcome is the exception it
        raised.

        With ``batch_queries`` > 1 and a batch-capable session, runs of
        consecutive searches are grouped (``workloads.mixes.batch_runs``)
        and issued as one shared traversal; every request in a group
        records the group's wall time as its latency — that is how long
        the synchronous client actually waited for it — and a group fails
        as one.
        """
        sim, injector = self.sim, self.injector
        batch_exec = getattr(session, "execute_search_batch", None)
        batch_queries = self.config.batch_queries if batch_exec else 1
        for group in batch_runs(requests, batch_queries):
            if injector is not None:
                stall = injector.client_stall(client_id)
                if stall > 0.0:
                    yield sim.timeout(stall)
            start = sim.now
            try:
                if len(group) == 1:
                    outcomes = [(yield from session.execute(group[0]))]
                else:
                    outcomes = yield from batch_exec(group)
            except (RequestTimeoutError, OffloadError) as exc:
                self.requests_failed += len(group)
                outcomes = [exc] * len(group)
            else:
                elapsed = sim.now - start
                for request in group:
                    stats.requests_sent += 1
                    stats.latency.record(elapsed)
                    if request.op == OP_SEARCH:
                        stats.search_latency.record(elapsed)
            if log is not None:
                for request, outcome in zip(group, outcomes):
                    log.append((len(log), request, outcome, sim.now))

    # -- execution ---------------------------------------------------------------

    def drive(self, limit: float = float("inf")) -> None:
        """Run until every client finished its request stream.

        Raises :class:`~repro.sim.kernel.SimulationError` if simulated
        time passes ``limit`` first (the chaos scenarios turn a wedge
        into a failed invariant that way).
        """
        try:
            self.sim.run_until_triggered(
                all_of(self.sim, self._drivers), limit=limit)
        finally:
            self.elapsed_s = self.sim.now

    def run(self) -> RunResult:
        """Drive to completion, settle background work, collect."""
        self.drive()
        self.deployment.settle()
        return self.collect()

    def _extra(self) -> dict:
        """``RunResult.extra`` payload (excluded from fingerprints)."""
        return {"failed": float(self.requests_failed)}

    def collect(self) -> RunResult:
        config, deployment = self.config, self.deployment
        elapsed = self.elapsed_s
        merged = merge_client_stats(self.client_stats)
        total = merged.requests_sent
        throughput_kops = (total / elapsed / 1e3) if elapsed > 0 else 0.0
        to_us = 1e6
        self.metrics.adopt(
            "client.latency_us",
            LatencyView(merged.latency, scale=to_us, unit="us",
                        loop="closed"),
        )
        self.metrics.adopt(
            "client.search_latency_us",
            LatencyView(merged.search_latency, scale=to_us, unit="us",
                        loop="closed"),
        )
        return RunResult(
            scheme=deployment.spec.name,
            fabric=config.fabric,
            n_clients=config.n_clients,
            total_requests=total,
            elapsed_s=elapsed,
            throughput_kops=throughput_kops,
            mean_latency_us=merged.latency.mean * to_us,
            p50_latency_us=merged.latency.percentile(50) * to_us,
            p99_latency_us=merged.latency.percentile(99) * to_us,
            p999_latency_us=merged.latency.percentile(99.9) * to_us,
            mean_search_latency_us=(
                merged.search_latency.mean * to_us
                if merged.search_latency.count
                else float("nan")
            ),
            server_cpu_utilization=deployment.mean_cpu_utilization(),
            server_bandwidth_gbps=deployment.total_bandwidth_gbps(),
            server_bandwidth_utilization=deployment.bandwidth_utilization(),
            offload_fraction=merged.offload_fraction,
            torn_retries=merged.torn_retries,
            search_restarts=merged.search_restarts,
            heartbeats_sent=deployment.heartbeats_sent(),
            heartbeats_dropped=deployment.heartbeats_dropped(),
            searches_served_by_server=deployment.searches_served(),
            inserts_served=deployment.inserts_served(),
            extra=self._extra(),
            metrics=snapshot_document(
                self.metrics,
                tracer=self.tracer if config.trace else None,
                meta={
                    "scheme": deployment.spec.name,
                    "fabric": config.fabric,
                    "n_clients": config.n_clients,
                    "n_shards": deployment.n_shards,
                    "requests_per_client": config.requests_per_client,
                    "workload": self._workload,
                    "seed": config.seed,
                    "elapsed_s": elapsed,
                    "throughput_kops": throughput_kops,
                },
            ),
        )


class ExperimentRunner(ClosedLoopRunner):
    """One server, ``n_clients`` plain sessions against it."""

    def __init__(self, config: ExperimentConfig,
                 record_results: bool = False, workload_fn=None):
        super().__init__(config, record_results=record_results,
                         workload_fn=workload_fn)
        self.stack = self.deployment.stacks[0]
        self.server = self.stack.server
        self.sessions = self.deployment.endpoints


def build_runner(config: ExperimentConfig, record_results: bool = False,
                 workload_fn=None):
    """The runner ``config`` asks for, built and not yet driven.

    Open-loop when the config carries a traffic block (the traffic
    harness handles sharding itself), else closed-loop: routed when the
    config (or the scheme's default) asks for more than one shard, plain
    otherwise.  ``run``/``compare`` and the chaos scenarios all come
    through here, so a scenario runs exactly the system an experiment
    of the same config runs.
    """
    if config.traffic is not None:
        from ..traffic.harness import TrafficRunner
        if workload_fn is not None:
            raise ValueError(
                "open-loop aggregates generate their own requests; "
                "workload_fn only replaces closed-loop streams"
            )
        return TrafficRunner(config, record=record_results)
    n_shards = (config.n_shards
                or scheme_spec(config.scheme, config.index).shards)
    if n_shards > 1:
        from ..shard.deploy import ShardedExperimentRunner
        return ShardedExperimentRunner(
            config, record_results=record_results, workload_fn=workload_fn)
    return ExperimentRunner(config, record_results=record_results,
                            workload_fn=workload_fn)


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Convenience wrapper: build, run, collect."""
    result = build_runner(config).run()
    # The open-loop result is projected onto the closed-loop shape.
    return result.to_run_result() if config.traffic is not None else result
