"""Server + offload client for the cuckoo hash table over the framework.

The table is one registered region of fixed-size bucket chunks; the
offloading GET computes both candidate buckets from the key and posts two
concurrent RDMA Reads — a single round trip, no meta region needed (no
resize, so the geometry never changes).  Writes go through the ring buffer
and the server's kick logic, wrapped in write windows so racing one-sided
readers observe torn buckets and retry (the window covers every bucket the
displacement walk touched, which is what makes heavy-kick inserts visibly
hostile to readers — an effect this module's benchmark ablates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, Sequence, Tuple

from ..client.offload_client import OneSidedReader
from ..hw.host import Host
from ..msg.codec import (
    KvDeleteRequest,
    KvGetRequest,
    KvPutRequest,
    ResponseSegment,
    segment_results,
)
from ..rtree.locks import TreeLockManager
from ..rtree.versioning import WriteTracker
from ..server.costs import DEFAULT_COSTS, CostModel
from ..server.plan import OpPlan, execute_plan, mutation_plan
from ..sim.kernel import Simulator
from .table import Bucket, CuckooFullError, CuckooHashTable

#: A bucket chunk: 4 slots x 16 B + versions, padded to two cache lines.
BUCKET_BYTES = 128


@dataclass(frozen=True)
class BucketSnapshot:
    index: int
    entries: Tuple[Tuple[int, int], ...]
    version: int
    torn: bool

    def find(self, key: int) -> Optional[int]:
        for k, v in self.entries:
            if k == key:
                return v
        return None


def snapshot_bucket(bucket: Bucket) -> BucketSnapshot:
    return BucketSnapshot(
        index=bucket.index,
        entries=tuple(bucket.entries),
        version=bucket.version,
        torn=bucket.active_writers > 0,
    )


@dataclass(frozen=True)
class CuckooDescriptor:
    """Client bootstrap: region + table geometry (hashing is code)."""

    rkey: int
    base: int
    bucket_bytes: int
    n_buckets: int
    slots_per_bucket: int
    seed: int


class _CuckooTarget:
    def __init__(self, service: "CuckooService"):
        self._service = service

    def rdma_read(self, address, length, now):
        offset = address - self._service.region.base
        index = offset // BUCKET_BYTES
        self._service.one_sided_reads += 1
        view = snapshot_bucket(self._service.table.buckets[index])
        if view.torn:
            self._service.torn_reads += 1
        return view

    def rdma_write(self, address, length, payload, now):
        raise PermissionError("clients never write the cuckoo region")


class CuckooService:
    """Server side: executes gets/puts/deletes with CPU costs + windows."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        items: Sequence[Tuple[int, int]] = (),
        n_buckets: int = 4096,
        slots_per_bucket: int = 4,
        costs: CostModel = DEFAULT_COSTS,
        seed: int = 0,
    ):
        self.sim = sim
        self.host = host
        self.costs = costs
        self.service_inflation = 1.0
        self.table = CuckooHashTable(
            n_buckets, slots_per_bucket=slots_per_bucket, seed=seed
        )
        self.region = host.memory.register(
            n_buckets * BUCKET_BYTES, name="cuckoo"
        )
        host.memory.bind(self.region.rkey, _CuckooTarget(self))
        self.locks = TreeLockManager(sim)
        self.write_tracker = WriteTracker(sim)
        self.one_sided_reads = 0
        self.torn_reads = 0
        self.gets_served = 0
        self.puts_served = 0
        self.deletes_served = 0
        self.failed_puts = 0
        for key, value in items:
            self.table.put(key, value)

    def offload_descriptor(self) -> CuckooDescriptor:
        return CuckooDescriptor(
            rkey=self.region.rkey,
            base=self.region.base,
            bucket_bytes=BUCKET_BYTES,
            n_buckets=self.table.n_buckets,
            slots_per_bucket=self.table.slots_per_bucket,
            seed=self.table.seed,
        )

    def bucket_address(self, index: int) -> int:
        return self.region.base + index * BUCKET_BYTES

    # -- execution -----------------------------------------------------------

    def _read_cost(self, result) -> float:
        return (
            self.costs.request_parse
            + result.buckets_probed * self.costs.bucket_probe
        ) * self.service_inflation

    def _write_cost(self, result) -> float:
        return (
            self.costs.request_parse
            + result.buckets_probed * self.costs.bucket_probe
            + self.costs.insert_write
            + result.kicks * self.costs.bucket_probe * 2
        ) * self.service_inflation

    def plan_get(self, key: int) -> OpPlan:
        result = self.table.get(key)
        return OpPlan(result.items, self._read_cost(result),
                      result.visited_chunks, counter="gets_served")

    def _write(self, ok: bool, result, counter: str) -> OpPlan:
        buckets = result.mutated_nodes
        return mutation_plan(ok, self._write_cost(result), buckets,
                             [b.index for b in buckets], self.costs,
                             counter)

    def plan_put(self, key: int, value: int) -> OpPlan:
        """A put; a full table refuses it before any CPU is charged."""
        try:
            result = self.table.put(key, value)
        except CuckooFullError:
            self.failed_puts += 1
            return OpPlan(False, None)
        return self._write(True, result, "puts_served")

    def plan_delete(self, key: int) -> OpPlan:
        result = self.table.delete(key)
        return self._write(result.ok, result, "deletes_served")

    def execute_put(self, key: int, value: int) -> Generator:
        return (yield from execute_plan(self, self.plan_put(key, value)))

    # -- transport dispatch ------------------------------------------------------

    def plan(self, request) -> OpPlan:
        if isinstance(request, KvGetRequest):
            plan = self.plan_get(request.key)
            plan.segments = segment_results(request.req_id, plan.result)
            return plan
        if isinstance(request, KvPutRequest):
            plan = self.plan_put(request.key, request.value)
        elif isinstance(request, KvDeleteRequest):
            plan = self.plan_delete(request.key)
        else:
            raise TypeError(f"cuckoo service got unexpected {request!r}")
        plan.segments = [ResponseSegment(request.req_id, (), last=True,
                                         ok=plan.result)]
        return plan

    def cpu_utilization(self) -> float:
        return self.host.cpu.utilization()

    # -- the served-work counters every service reports ----------------------

    @property
    def searches_served(self) -> int:
        return self.gets_served

    @property
    def inserts_served(self) -> int:
        return self.puts_served

    def items_held(self) -> int:
        return self.table.size


class CuckooOffloadEngine(OneSidedReader):
    """Client-side GET over the shared reader: both candidate buckets in
    one concurrent wave, under every scheme (a GET has no traversal for
    single-issue to serialize), and no meta read (the geometry is fixed).
    """

    #: Counters summed over all clients into the ``offload.*`` metrics.
    counter_fields = ("buckets_fetched",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        desc = self.desc
        #: Client-side mirror of the hash functions (same code, same seed).
        self._shadow = CuckooHashTable(
            desc.n_buckets,
            slots_per_bucket=desc.slots_per_bucket,
            seed=desc.seed,
        )

    @staticmethod
    def _address_map(desc: CuckooDescriptor) -> Tuple[int, int, int]:
        return desc.rkey, desc.base, desc.bucket_bytes

    @property
    def buckets_fetched(self):
        """Bucket reads landed (the reader's ``chunks_fetched``)."""
        return self.chunks_fetched

    def _check(self, view: BucketSnapshot,
               _expected) -> Optional[BucketSnapshot]:
        if not view.torn:
            return view
        self.stats.torn_retries += 1
        return None

    def read(self, request) -> Generator:
        """Serve one read request — GET is the table's only read."""
        return self.get(request.key)

    def get(self, key: int) -> Generator:
        """One-RTT lookup: both buckets fetched concurrently."""
        self.stats.offloaded_requests += 1
        return self._restarting("get", self._get_once, key)

    def _get_once(self, key: int) -> Generator:
        # An urgent wave on purpose: posted inline, these reads would go
        # out one process generation earlier than other clients'
        # fast-messaging writes posted at the same instant and overtake
        # them on the wire, which moves the kv-sweep row of
        # benchmarks/claims.py at 32 clients.
        indices = dict.fromkeys(self._shadow.bucket_indices(key))
        views = yield from self._fetch_round(
            [(index, None) for index in indices], urgent=True)
        if views is None:
            return None
        yield self.sim.timeout(self.costs.client_node_check)
        for view in views:
            value = view.find(key)
            if value is not None:
                return [(key, value)]
        return []
