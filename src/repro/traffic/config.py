"""Traffic-layer configuration (a leaf module).

Kept free of any other ``repro`` imports so
:class:`~repro.cluster.config.ExperimentConfig` can embed a
:class:`TrafficConfig` without creating an import cycle (the traffic
harness itself imports the cluster layer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

ARRIVAL_KINDS = ("poisson", "diurnal", "flash-crowd")

#: Depth of the mux admission token bucket: arrivals it admits back to
#: back at ``admit_rate`` before the bucket runs dry.
ADMIT_BURST = 64


@dataclass(frozen=True)
class TrafficConfig:
    """One open-loop traffic mix: who arrives, how fast, through what.

    All rates are aggregate arrivals/second over the whole deployment;
    each of the ``n_aggregates`` aggregated clients offers an equal
    share.  ``None`` on :class:`ExperimentConfig.traffic` means the
    classic closed-loop drivers run instead — the default on which every
    golden fingerprint is pinned.
    """

    #: Arrival process shape: ``poisson`` (homogeneous), ``diurnal``
    #: (sinusoidal rate) or ``flash-crowd`` (rate multiplier window).
    kind: str = "poisson"
    #: Offered load, arrivals/second, summed over all aggregates.
    rate: float = 100_000.0
    #: Simulated open-loop window during which arrivals are generated.
    duration_s: float = 4e-3

    #: Aggregated clients (simulated endpoints); each stands in for
    #: ``users_per_aggregate`` virtual users.
    n_aggregates: int = 4
    users_per_aggregate: int = 1000
    #: Per-tenant rate mix as (name, weight) pairs; weights need not sum
    #: to 1 (they are normalized).
    tenants: Tuple[Tuple[str, float], ...] = (("default", 1.0),)

    #: Per-aggregate in-flight cap: arrivals beyond it are dropped at
    #: the aggregate (counted, never blocking — the load stays open).
    window: int = 256

    #: Shared sessions (QPs) the connection mux multiplexes every
    #: aggregate onto, per deployment (RDMAvisor-style).  A session
    #: carries one batch at a time: one job, or under load up to
    #: ``mux.MAX_BATCH`` queued searches.
    sessions: int = 4
    #: Token-bucket admission rate at the mux front-end (bucket depth
    #: :data:`ADMIT_BURST`); None disables the bucket (watermark-only
    #: admission).
    admit_rate: Optional[float] = None
    #: Mux queue-depth shed threshold (jobs waiting for a session).
    queue_watermark: int = 512

    # Diurnal sinusoid: rate(t) = rate * (1 + amplitude*sin(2*pi*t/period)).
    period_s: float = 2e-3
    amplitude: float = 0.5

    # Flash crowd: rate multiplied by ``spike_multiplier`` inside
    # [spike_start, spike_end).
    spike_start: float = 1e-3
    spike_end: float = 2e-3
    spike_multiplier: float = 8.0

    #: Draw query locations from Zipf hotspots instead of uniformly
    #: (the skewed regime the elastic shard plane exists for).  Off by
    #: default — the traffic golden fingerprints are pinned on uniform.
    hotspot_skew: bool = False

    def __post_init__(self):
        if self.kind not in ARRIVAL_KINDS:
            raise ValueError(
                f"unknown arrival kind {self.kind!r}; "
                f"known: {', '.join(ARRIVAL_KINDS)}"
            )
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be > 0, got {self.duration_s}")
        if self.n_aggregates < 1:
            raise ValueError(
                f"n_aggregates must be >= 1, got {self.n_aggregates}")
        if self.users_per_aggregate < 1:
            raise ValueError(
                f"users_per_aggregate must be >= 1, got "
                f"{self.users_per_aggregate}")
        if not self.tenants:
            raise ValueError("need at least one tenant")
        if any(weight <= 0 for _name, weight in self.tenants):
            raise ValueError(f"tenant weights must be > 0: {self.tenants}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.sessions < 1:
            raise ValueError(f"sessions must be >= 1, got {self.sessions}")
        if self.admit_rate is not None and self.admit_rate <= 0:
            raise ValueError(
                f"admit_rate must be > 0 or None, got {self.admit_rate}")
        if self.queue_watermark < 1:
            raise ValueError(
                f"queue_watermark must be >= 1, got {self.queue_watermark}")
        if self.kind == "diurnal":
            if self.period_s <= 0:
                raise ValueError(
                    f"period_s must be > 0, got {self.period_s}")
            if not 0.0 <= self.amplitude < 1.0:
                raise ValueError(
                    f"amplitude must be in [0, 1), got {self.amplitude}")
        if self.kind == "flash-crowd":
            if not 0.0 <= self.spike_start < self.spike_end:
                raise ValueError(
                    f"bad spike window [{self.spike_start}, "
                    f"{self.spike_end})")
            if self.spike_multiplier < 1.0:
                raise ValueError(
                    f"spike_multiplier must be >= 1, got "
                    f"{self.spike_multiplier}")

    @property
    def total_users(self) -> int:
        return self.n_aggregates * self.users_per_aggregate

    @property
    def tenant_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _weight in self.tenants)
