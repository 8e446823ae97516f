"""The Catfish adaptive client — Algorithm 1 of the paper.

The decision rule itself lives in
:class:`~repro.runtime.policy.Algorithm1Policy` (see its docstring for
the back-off algorithm) and the execution skeleton in
:class:`~repro.runtime.session.PolicySession`; this module keeps the
:class:`CatfishSession` constructor and trace component that the
B+tree / cuckoo subclasses and the chaos harness build on.  The
Algorithm 1 state and counters (``r_busy`` / ``r_off`` / ...) live on
``session.policy``.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from ..runtime.policy import AdaptiveParams, Algorithm1Policy
from ..runtime.session import PolicySession
from ..sim.kernel import Simulator
from .base import ClientStats
from .fm_client import FmSession
from .offload_client import OffloadEngine
from .predictors import most_recent
from .resilience import CircuitBreaker

#: The paper's default ``predUtil`` — kept as a public alias of the
#: canonical :func:`repro.client.predictors.most_recent`.
most_recent_utilization = most_recent

__all__ = ["AdaptiveParams", "CatfishSession", "most_recent_utilization"]

class CatfishSession(PolicySession):
    """Adaptive per-request scheme selection (Algorithm 1)."""

    trace_component = "adaptive"

    def __init__(
        self,
        sim: Simulator,
        fm: FmSession,
        engine: OffloadEngine,
        stats: ClientStats,
        params: AdaptiveParams = AdaptiveParams(),
        rng: Optional[random.Random] = None,
        pred_util: Callable[[float], float] = most_recent_utilization,
        tracer=None,
        breaker: Optional[CircuitBreaker] = None,
        stale_after_missing: Optional[int] = None,
    ):
        policy = Algorithm1Policy(
            sim,
            # A callable so a session whose fast-messaging endpoint is
            # swapped (failover tests) never strands the policy on a
            # stale mailbox.
            lambda: self.fm.mailbox,
            params=params,
            rng=rng,
            pred_util=pred_util,
            stale_after_missing=stale_after_missing,
        )
        super().__init__(sim, fm, engine, stats, policy,
                         tracer=tracer, breaker=breaker)
