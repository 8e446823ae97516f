"""The single session-assembly path shared by every deployment shape.

Pre-refactor, ``ExperimentRunner._build_session`` and
``ShardedExperimentRunner._build_shard_session`` duplicated the whole
client-side assembly (connection, retrying FM session, heartbeat
subscription, offload engine, scheme dispatch) — and drifted: the bandit
scheme never gained tracer/breaker support and raised "not supported
sharded".  :class:`SessionFactory` is now the only place a session is
built; :class:`~repro.cluster.deployment.Deployment` owns the one
instance and calls it once per plain endpoint, K times per routed one.
Every RDMA scheme gets the same
:class:`~repro.runtime.session.PolicySession`; what varies is the policy
object, and — per the index the scheme names — the fast-messaging codec
and the offload engine.

Determinism contract: the factory draws from exactly the stream names the
old builders used — ``retry`` / ``backoff`` / ``bandit`` on the caller's
per-client registry (``rngs.fork(f"client-{i}")`` single-server,
``rngs.shard(k).fork(f"client-{i}")`` sharded) — and streams are
independently seeded by name, so existing schemes stay bit-identical.
"""

from __future__ import annotations

from ..btree.offload import BTreeOffloadEngine, KvFmSession
from ..client.base import ClientStats
from ..client.fm_client import FmSession
from ..client.node_cache import NodeCache
from ..client.offload_client import OffloadEngine
from ..client.predictors import make_predictor
from ..client.resilience import CircuitBreaker, RetryPolicy
from ..client.tcp_client import TcpSession
from ..cuckoo.service import CuckooOffloadEngine
from ..hw.host import Host
from ..sim.kernel import Simulator
from ..sim.rng import RngRegistry
from ..transport.tcp import TcpConnection
from .policy import (
    Algorithm1Policy,
    AlwaysFmPolicy,
    AlwaysOffloadPolicy,
    BanditPolicy,
)
from .session import PolicySession
from .stack import ServerStack

#: The offload engine of each index: one constructor call builds any of
#: them (:meth:`SessionFactory._engine`).
_ENGINES = {
    "rtree": OffloadEngine,
    "btree": BTreeOffloadEngine,
    "cuckoo": CuckooOffloadEngine,
}


class SessionFactory:
    """Build one client's session against one :class:`ServerStack`."""

    def __init__(self, sim: Simulator, spec, config, tracer):
        self.sim = sim
        self.spec = spec
        self.config = config
        self.tracer = tracer
        #: Where the offload engines' budgets come from.  A run without
        #: a retry policy gets the policy's defaults, which are the
        #: engines' own.
        self.retry = config.retry or RetryPolicy()

    def _engine(self, conn, stack: ServerStack, stats: ClientStats):
        """The offload engine matching the stack's index."""
        spec, config, retry = self.spec, self.config, self.retry
        engine = _ENGINES[spec.index](
            self.sim, conn.client_end, stack.server.offload_descriptor(),
            config.costs, stats,
            multi_issue=spec.multi_issue,
            max_read_retries=retry.offload_read_retries,
            max_restarts=retry.offload_search_restarts,
            tracer=self.tracer,
        )
        cache_cfg = getattr(config, "node_cache", None)
        if isinstance(engine, OffloadEngine) and cache_cfg is not None:
            cache = NodeCache(cache_cfg)
            engine.attach_cache(cache)
            # Heartbeat-piggybacked invalidation hints land in this
            # client's mailbox; flush stale views as they are delivered.
            conn.mailbox.attach_hint_sink(cache.apply_hint)
        return engine

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
        fm_session = FmSession if self.spec.index == "rtree" else KvFmSession
        fm = fm_session(
            self.sim, conn, client_id, stats,
            retry=config.retry,
            rng=rngs.stream("retry"),
        )
        if stack.heartbeats is not None:
            stack.heartbeats.subscribe(
                conn.response_ring,
                lambda hb, c=conn: c.server_post_response(hb),
            )
        name = self.spec.policy
        engine = breaker = None
        if name == AlwaysFmPolicy.name:
            policy = AlwaysFmPolicy()
        else:
            engine = self._engine(conn, stack, stats)
            if name == AlwaysOffloadPolicy.name:
                policy = AlwaysOffloadPolicy()
            elif name == Algorithm1Policy.name:
                policy = Algorithm1Policy(
                    self.sim,
                    fm.mailbox,
                    params=config.adaptive,
                    rng=rngs.stream("backoff"),
                    pred_util=make_predictor(self.spec.predictor),
                    stale_after_missing=config.stale_after_missing,
                )
            elif name == BanditPolicy.name:
                policy = BanditPolicy(rng=rngs.stream("bandit"))
            else:
                raise ValueError(f"unknown path policy {name!r}")
            # Only the two learning policies fail over: the fixed
            # baseline keeps the seed behaviour of propagating an
            # OffloadError.
            if (config.breaker is not None
                    and name != AlwaysOffloadPolicy.name):
                breaker = CircuitBreaker(self.sim, config.breaker)
        return PolicySession(
            self.sim, fm, engine, stats, policy,
            tracer=self.tracer, breaker=breaker,
        )
