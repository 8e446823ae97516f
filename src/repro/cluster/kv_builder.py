"""The §VI framework extensions (B+tree, cuckoo) as experiments.

A KV experiment is the *same* deployment and closed-loop driver as an
R-tree one (:class:`~repro.cluster.deployment.Deployment` +
:class:`~repro.cluster.builder.ClosedLoopRunner`); this module only
supplies what differs: the config, the four KV schemes (all event-mode,
multi-issue, heartbeats on), the dataset of keys, and the zipf-popular
GET/PUT (and, for the B+tree, range-scan) request stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..btree import KvRequest, OP_GET, OP_PUT, OP_SCAN
from ..client.adaptive import AdaptiveParams
from ..sim.rng import RngRegistry
from ..workloads.skew import ZipfSampler
from .builder import ClosedLoopRunner
from .config import ExperimentConfig
from .results import RunResult
from .schemes import (
    OFFLOAD_ADAPTIVE,
    OFFLOAD_ALWAYS,
    OFFLOAD_BANDIT,
    OFFLOAD_NEVER,
    TRANSPORT_RDMA,
    SchemeSpec,
)

#: KV scheme name -> offload mode.  Unlike their R-tree namesakes all
#: four run the event-driven server with multi-issue scans and
#: heartbeats on, so they differ in the path policy only.
KV_SCHEMES = {
    "fast-messaging": OFFLOAD_NEVER,
    "rdma-offloading": OFFLOAD_ALWAYS,
    "catfish": OFFLOAD_ADAPTIVE,
    "catfish-bandit": OFFLOAD_BANDIT,
}
KV_INDEXES = ("btree", "cuckoo")


@dataclass
class KvExperimentConfig:
    """One KV experiment point."""

    index: str = "btree"
    scheme: str = "catfish"
    fabric: str = "ib-100g"
    n_clients: int = 8
    requests_per_client: int = 100

    # Workload: zipf-popular keys, get/put/scan mix.
    n_keys: int = 20_000
    get_fraction: float = 0.9
    scan_fraction: float = 0.0  # B+tree only
    scan_span: int = 200        # key-space width of one scan
    zipf_s: float = 0.99

    # Index parameters.
    capacity: int = 64          # B+tree node capacity
    n_buckets: Optional[int] = None  # cuckoo (default: sized for 60% load)

    server_cores: int = 28
    client_cores: int = 2
    heartbeat_interval: float = 0.5e-3
    adaptive: Optional[AdaptiveParams] = None
    seed: int = 0

    def __post_init__(self):
        if self.index not in KV_INDEXES:
            raise ValueError(f"unknown index {self.index!r}")
        if self.scheme not in KV_SCHEMES:
            raise ValueError(f"unknown kv scheme {self.scheme!r}")
        if self.index == "cuckoo" and self.scan_fraction > 0:
            raise ValueError("cuckoo hashing has no range scans")
        if self.get_fraction < 0 or self.scan_fraction < 0:
            raise ValueError("get/scan fractions must be >= 0")
        if self.get_fraction + self.scan_fraction > 1:
            raise ValueError("get/scan fractions exceed 1")
        if self.adaptive is None:
            self.adaptive = AdaptiveParams(Inv=self.heartbeat_interval)

    @property
    def total_requests(self) -> int:
        return self.n_clients * self.requests_per_client


def _kv_workload(config: KvExperimentConfig, keys, rng) -> List[KvRequest]:
    """One client's zipf-popular request stream."""
    sampler = ZipfSampler(len(keys), config.zipf_s)
    requests: List[KvRequest] = []
    for _ in range(config.requests_per_client):
        roll = rng.random()
        key = keys[sampler.sample(rng)]
        if roll < config.get_fraction:
            requests.append(KvRequest(OP_GET, key=key))
        elif roll < config.get_fraction + config.scan_fraction:
            requests.append(KvRequest(
                OP_SCAN, lo=key, hi=key + config.scan_span,
                max_results=256,
            ))
        else:
            requests.append(KvRequest(OP_PUT, key=key,
                                      value=rng.randrange(1 << 30)))
    return requests


def run_kv_experiment(config: KvExperimentConfig,
                      **deployment_options) -> RunResult:
    """Build, run and summarize one KV experiment.

    ``deployment_options`` are :class:`ExperimentConfig` fields the KV
    config has no counterpart for (``trace``, ``retry``, ``breaker``,
    ``fault_plan``, ...), handed to the shared assembler unchanged.
    """
    if (deployment_options.get("n_shards") or 1) > 1:
        raise ValueError(
            "a KV index runs on one server: the shard plane partitions "
            "rectangles (R-tree only)"
        )
    keys = sorted(RngRegistry(config.seed).stream("dataset").sample(
        range(1 << 40), config.n_keys))
    label = f"{config.index}:{config.scheme}"
    spec = SchemeSpec(
        name=label, transport=TRANSPORT_RDMA, notification="event",
        offload=KV_SCHEMES[config.scheme], multi_issue=True,
        heartbeats=True, index=config.index,
    )
    if config.index == "btree":
        sizing = config.capacity
    else:
        # Sized for a 60% load factor at four slots per bucket.
        sizing = config.n_buckets or max(64, int(config.n_keys / (4 * 0.6)))
    runner = ClosedLoopRunner(
        ExperimentConfig(
            scheme=label,
            fabric=config.fabric,
            n_clients=config.n_clients,
            requests_per_client=config.requests_per_client,
            dataset=[(k, k ^ 0x5A5A) for k in keys],
            max_entries=sizing,
            server_cores=config.server_cores,
            client_cores=config.client_cores,
            adaptive=config.adaptive,
            heartbeat_interval=config.heartbeat_interval,
            seed=config.seed,
            **deployment_options,
        ),
        spec=spec,
        workload_fn=lambda _client_id, rng: _kv_workload(config, keys, rng),
    )
    return runner.run()
