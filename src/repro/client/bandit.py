"""A learning mode selector — the paper's "machine learning" future work.

§V-B: when the server stays overloaded, Algorithm 1's heuristic keeps
bouncing clients back to fast messaging; the paper points at runtime
learning ("a recent study which uses machine learning methods to select
the best configuration at the runtime") as the fix.

The ε-greedy learner itself lives in
:class:`~repro.runtime.policy.BanditPolicy` (arm state and counters are
read as ``session.policy.*``); this module keeps the
:class:`BanditSession` constructor on top of the generic
:class:`~repro.runtime.session.PolicySession` — which is how the bandit
gained tracer, metrics and circuit-breaker support for free, on the
sharded runner too (it previously lacked all three).
"""

from __future__ import annotations

import random
from typing import Optional

from ..runtime.policy import (
    FAST_MESSAGING,
    OFFLOADING,
    BanditPolicy,
    LatencyEstimate,
)
from ..runtime.session import PolicySession
from ..sim.kernel import Simulator
from .base import ClientStats

__all__ = [
    "FAST_MESSAGING",
    "OFFLOADING",
    "BanditSession",
    "LatencyEstimate",
]


class BanditSession(PolicySession):
    """ε-greedy latency bandit over the two access methods."""

    trace_component = "bandit"

    def __init__(
        self,
        sim: Simulator,
        fm,
        engine,
        stats: ClientStats,
        epsilon: float = 0.1,
        alpha: float = 0.3,
        rng: Optional[random.Random] = None,
        tracer=None,
        breaker=None,
    ):
        policy = BanditPolicy(epsilon=epsilon, alpha=alpha, rng=rng)
        super().__init__(sim, fm, engine, stats, policy,
                         tracer=tracer, breaker=breaker)
