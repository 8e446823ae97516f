"""The single session-assembly path shared by every deployment shape.

Pre-refactor, ``ExperimentRunner._build_session`` and
``ShardedExperimentRunner._build_shard_session`` duplicated the whole
client-side assembly (connection, retrying FM session, heartbeat
subscription, offload engine, scheme dispatch) — and drifted: the bandit
scheme never gained tracer/breaker support and raised "not supported
sharded".  :class:`SessionFactory` is now the only place a session is
built; :class:`~repro.cluster.deployment.Deployment` owns the one
instance and calls it once per plain endpoint, K times per routed one.

Determinism contract: the factory draws from exactly the stream names the
old builders used — ``retry`` / ``backoff`` / ``bandit`` on the caller's
per-client registry (``rngs.fork(f"client-{i}")`` single-server,
``rngs.shard(k).fork(f"client-{i}")`` sharded) — and streams are
independently seeded by name, so existing schemes stay bit-identical.
"""

from __future__ import annotations

from ..client.adaptive import CatfishSession
from ..client.bandit import BanditSession
from ..client.base import ClientStats
from ..client.fm_client import FmSession
from ..client.node_cache import NodeCache
from ..client.offload_client import OffloadEngine
from ..client.predictors import make_predictor
from ..client.resilience import CircuitBreaker
from ..client.tcp_client import TcpSession
from ..hw.host import Host
from ..sim.kernel import Simulator
from ..sim.rng import RngRegistry
from ..transport.tcp import TcpConnection
from .policy import AlwaysFmPolicy, AlwaysOffloadPolicy
from .session import PolicySession
from .stack import ServerStack


class SessionFactory:
    """Build one client's session against one :class:`ServerStack`."""

    def __init__(self, sim: Simulator, spec, config, tracer):
        self.sim = sim
        self.spec = spec
        self.config = config
        self.tracer = tracer

    def _breaker(self):
        return (CircuitBreaker(self.sim, self.config.breaker)
                if self.config.breaker is not None else None)

    def build(
        self,
        client_id: int,
        stack: ServerStack,
        host: Host,
        stats: ClientStats,
        rngs: RngRegistry,
    ):
        """One session for ``client_id`` against ``stack``.

        ``rngs`` is the caller's per-client registry; the factory only
        names streams on it, it never re-derives seeds.
        """
        if stack.tcp_server is not None:
            conn = TcpConnection(
                self.sim, stack.network, host, stack.host,
                name=f"tcp-{client_id}",
            )
            stack.tcp_server.accept(conn)
            return TcpSession(self.sim, conn, client_id, stats)

        config = self.config
        conn = stack.fm_server.open_connection(host)
        fm = FmSession(
            self.sim, conn, client_id, stats,
            retry=config.retry,
            rng=rngs.stream("retry"),
        )
        if stack.heartbeats is not None:
            stack.heartbeats.subscribe(
                conn.response_ring,
                lambda hb, c=conn: c.server_post_response(hb),
            )
        policy = self.spec.policy
        if policy == AlwaysFmPolicy.name:
            return PolicySession(
                self.sim, fm, None, stats, AlwaysFmPolicy(),
                tracer=self.tracer,
            )
        engine = OffloadEngine(
            self.sim,
            conn.client_end,
            stack.server.offload_descriptor(),
            config.costs,
            stats,
            multi_issue=self.spec.multi_issue,
            tracer=self.tracer,
        )
        cache_cfg = getattr(config, "node_cache", None)
        if cache_cfg is not None and cache_cfg.enabled:
            cache = NodeCache(cache_cfg)
            engine.attach_cache(cache)
            # Heartbeat-piggybacked invalidation hints land in this
            # client's mailbox; flush stale views as they are delivered.
            conn.mailbox.attach_hint_sink(cache.apply_hint)
        if policy == AlwaysOffloadPolicy.name:
            return PolicySession(
                self.sim, fm, engine, stats, AlwaysOffloadPolicy(),
                tracer=self.tracer,
            )
        if policy == "algorithm1":
            return CatfishSession(
                self.sim,
                fm,
                engine,
                stats,
                params=config.adaptive,
                rng=rngs.stream("backoff"),
                pred_util=make_predictor(self.spec.predictor),
                tracer=self.tracer,
                breaker=self._breaker(),
                stale_after_missing=config.stale_after_missing,
            )
        if policy == "bandit":
            return BanditSession(
                self.sim,
                fm,
                engine,
                stats,
                rng=rngs.stream("bandit"),
                tracer=self.tracer,
                breaker=self._breaker(),
            )
        raise ValueError(f"unknown path policy {policy!r}")
