"""Client-side scaffolding shared by all access schemes."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from ..msg.codec import (
    CountRequest,
    DeleteRequest,
    InsertRequest,
    NearestRequest,
    SearchRequest,
    UpdateRequest,
)
from ..obs.registry import Counter
from ..rtree.geometry import Rect
from ..sim.monitor import LatencyRecorder

# Request kinds produced by workload generators.
OP_SEARCH = "search"
OP_INSERT = "insert"
OP_DELETE = "delete"
OP_NEAREST = "nearest"
OP_COUNT = "count"
OP_UPDATE = "update"

#: Operations that only read the tree (offloadable per §III-B).
READ_OPS = (OP_SEARCH, OP_NEAREST, OP_COUNT)


@dataclass(frozen=True)
class Request:
    """One client request, scheme-independent.

    ``rect`` is the query rectangle (for nearest: a point rect around the
    query point); ``k`` is the neighbour count for nearest queries.
    """

    op: str
    rect: Rect
    data_id: Optional[int] = None
    k: Optional[int] = None
    #: For updates: the replacement rectangle (``rect`` is the old one).
    new_rect: Optional[Rect] = None

    def __post_init__(self):
        if self.op not in (OP_SEARCH, OP_INSERT, OP_DELETE, OP_NEAREST,
                           OP_COUNT, OP_UPDATE):
            raise ValueError(f"unknown op {self.op!r}")
        if self.op in (OP_INSERT, OP_DELETE, OP_UPDATE) and (
            self.data_id is None
        ):
            raise ValueError(f"{self.op} request needs a data_id")
        if self.op == OP_NEAREST and (self.k is None or self.k < 1):
            raise ValueError("nearest request needs k >= 1")
        if self.op == OP_UPDATE and self.new_rect is None:
            raise ValueError("update request needs new_rect")


def encode_request(req_id: int, request: Request):
    """The wire message of ``request`` under ``req_id`` (every transport
    sends the same one)."""
    op = request.op
    if op == OP_SEARCH:
        return SearchRequest(req_id, request.rect)
    if op == OP_NEAREST:
        cx, cy = request.rect.center()
        return NearestRequest(req_id, cx, cy, request.k)
    if op == OP_COUNT:
        return CountRequest(req_id, request.rect)
    if op == OP_INSERT:
        return InsertRequest(req_id, request.rect, request.data_id)
    if op == OP_DELETE:
        return DeleteRequest(req_id, request.rect, request.data_id)
    if op == OP_UPDATE:
        return UpdateRequest(req_id, request.rect, request.new_rect,
                             request.data_id)
    raise ValueError(op)  # pragma: no cover - Request validates


#: The counter fields of :class:`ClientStats`, in registration order.
CLIENT_COUNTER_FIELDS = (
    "requests_sent",
    "fast_messaging_requests",
    "offloaded_requests",
    "torn_retries",
    "level_mismatch_retries",
    "search_restarts",
    "results_received",
    # Resilience counters (deadlines/retries/duplicate suppression — see
    # docs/robustness.md).
    "request_timeouts",
    "request_retries",
    "ring_full_timeouts",
    "duplicates_suppressed",
    "unexpected_messages",
)


@dataclass
class ClientStats:
    """Everything one client session records while running.

    The counters are :class:`~repro.obs.registry.Counter` objects — they
    behave exactly like ints (``stats.torn_retries += 1`` and comparisons
    keep working) while a :class:`~repro.obs.registry.MetricsRegistry`
    can adopt them and observe live values.
    """

    latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    search_latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    requests_sent: Counter = field(default_factory=Counter)
    fast_messaging_requests: Counter = field(default_factory=Counter)
    offloaded_requests: Counter = field(default_factory=Counter)
    torn_retries: Counter = field(default_factory=Counter)
    #: Valid-but-wrong-level reads (recycled chunk / stale root) — a
    #: different failure than a torn snapshot, counted separately so the
    #: two diagnoses don't blur into one number.
    level_mismatch_retries: Counter = field(default_factory=Counter)
    search_restarts: Counter = field(default_factory=Counter)
    results_received: Counter = field(default_factory=Counter)
    #: Attempts abandoned because the response deadline expired.
    request_timeouts: Counter = field(default_factory=Counter)
    #: Re-sends after a timed-out or ring-full attempt.
    request_retries: Counter = field(default_factory=Counter)
    #: Bounded ring reservations that expired (RingBufferFullError).
    ring_full_timeouts: Counter = field(default_factory=Counter)
    #: Response segments of abandoned attempts, dropped on arrival.
    duplicates_suppressed: Counter = field(default_factory=Counter)
    #: Messages of an unknown type dropped by the receiver.
    unexpected_messages: Counter = field(default_factory=Counter)

    @property
    def offload_fraction(self) -> float:
        total = self.fast_messaging_requests + self.offloaded_requests
        return self.offloaded_requests / total if total else 0.0


class RequestIdAllocator:
    """Monotonic request ids, one stream per client."""

    def __init__(self, client_id: int):
        # Partition the id space so ids are globally unique and traceable.
        self._counter = itertools.count(client_id << 32)

    def next_id(self) -> int:
        return next(self._counter)
