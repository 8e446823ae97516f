"""Experiment result aggregation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from ..client.base import CLIENT_COUNTER_FIELDS, ClientStats


@dataclass
class RunResult:
    """All metrics of one experiment run, paper-figure ready."""

    scheme: str
    fabric: str
    n_clients: int
    total_requests: int
    elapsed_s: float

    #: Kops, the paper's Fig 10/12/14 unit.
    throughput_kops: float
    #: Microseconds, the paper's Fig 11/13/14 unit.
    mean_latency_us: float
    p50_latency_us: float
    p99_latency_us: float
    mean_search_latency_us: float

    server_cpu_utilization: float
    server_bandwidth_gbps: float
    server_bandwidth_utilization: float

    offload_fraction: float
    torn_retries: int
    search_restarts: int
    #: p99.9 tail; defaulted (and excluded from the fingerprint) so the
    #: pre-existing goldens stay valid.
    p999_latency_us: float = float("nan")
    heartbeats_sent: int = 0
    heartbeats_dropped: int = 0
    searches_served_by_server: int = 0
    inserts_served: int = 0
    extra: Dict[str, float] = field(default_factory=dict)
    #: Full observability snapshot (``catfish-metrics/v1`` document):
    #: registry counters/gauges/histograms plus optional trace events.
    #: See docs/observability.md.
    metrics: Dict[str, Any] = field(default_factory=dict)

    def row(self) -> str:
        """One formatted table row (the bench harness prints these)."""
        return (
            f"{self.scheme:>22} {self.fabric:>8} {self.n_clients:>5} "
            f"{self.throughput_kops:>10.1f} {self.mean_latency_us:>10.1f} "
            f"{self.p99_latency_us:>10.1f} "
            f"{self.server_cpu_utilization * 100:>6.1f}% "
            f"{self.server_bandwidth_gbps:>8.3f} "
            f"{self.offload_fraction * 100:>6.1f}%"
        )

    @staticmethod
    def header() -> str:
        return (
            f"{'scheme':>22} {'fabric':>8} {'cli':>5} "
            f"{'Kops':>10} {'mean_us':>10} {'p99_us':>10} "
            f"{'cpu':>7} {'gbps':>8} {'offl':>7}"
        )


def merge_client_stats(all_stats: List[ClientStats]) -> ClientStats:
    """Combine per-client stats into one aggregate."""
    merged = ClientStats()
    for stats in all_stats:
        for sample in stats.latency.samples:
            merged.latency.record(sample)
        for sample in stats.search_latency.samples:
            merged.search_latency.record(sample)
    for name in CLIENT_COUNTER_FIELDS:
        setattr(merged, name, sum(getattr(s, name) for s in all_stats))
    return merged
