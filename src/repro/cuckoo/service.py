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
from ..msg.codec import KvGetRequest, KvPutRequest
from ..server.base import ACK, RESULTS, ChunkReads, IndexService
from ..server.costs import DEFAULT_COSTS, CostModel
from ..server.plan import OpPlan, mutation_plan
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
        index=bucket.chunk_id,
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


class CuckooService(IndexService):
    """Server side: executes gets/puts with CPU costs + windows."""

    PLANS = {
        KvGetRequest: (lambda s, r: s.plan_get(r.key), RESULTS),
        KvPutRequest: (lambda s, r: s.plan_put(r.key, r.value), ACK),
    }

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        items: Sequence[Tuple[int, int]] = (),
        n_buckets: int = 4096,
        costs: CostModel = DEFAULT_COSTS,
        seed: int = 0,
    ):
        super().__init__(sim, host, costs)
        self.table = CuckooHashTable(n_buckets, seed=seed)
        #: Buckets are never freed, so no read sees garbage.
        self.chunk_reads = ChunkReads(self._bucket_at, snapshot_bucket,
                                      garbage=None)
        self.region = self._register_read_only(
            n_buckets * BUCKET_BYTES, "cuckoo", self.chunk_reads)
        self.gets_served = 0
        self.puts_served = 0
        self.failed_puts = 0
        for key, value in items:
            self.table.put(key, value)

    def _bucket_at(self, address: int) -> Tuple[int, Bucket]:
        index = (address - self.region.base) // BUCKET_BYTES
        return index, self.table.buckets[index]

    def offload_descriptor(self) -> CuckooDescriptor:
        return CuckooDescriptor(
            rkey=self.region.rkey,
            base=self.region.base,
            bucket_bytes=BUCKET_BYTES,
            n_buckets=self.table.n_buckets,
            slots_per_bucket=self.table.slots_per_bucket,
            seed=self.table.seed,
        )

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

    def _write(self, result, counter: str) -> OpPlan:
        buckets = result.mutated_nodes
        return mutation_plan(True, self._write_cost(result), buckets,
                             [b.chunk_id for b in buckets], self.costs,
                             counter)

    def plan_put(self, key: int, value: int) -> OpPlan:
        """A put; a full table refuses it before any CPU is charged."""
        try:
            result = self.table.put(key, value)
        except CuckooFullError:
            self.failed_puts += 1
            return OpPlan(False, None)
        return self._write(result, "puts_served")

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
