"""Request/response message types with exact wire-size accounting.

The simulation moves Python objects, but every message knows the byte size
it would occupy in the ring buffer, following the paper's formats: a search
request carries one rectangle (four doubles); a search response returns the
matching rectangles (the paper returns "all overlapped rectangles").
Responses larger than a segment are split across ring-buffer messages with
CONT/END type flags (paper Fig 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..rtree.geometry import Rect

# Message type tags (the ring-buffer "type" field).
MSG_SEARCH = 1
MSG_INSERT = 2
MSG_DELETE = 3
MSG_RESPONSE_CONT = 4
MSG_RESPONSE_END = 5
MSG_HEARTBEAT = 6
# Key-value requests for the §VI framework extensions (B+tree, cuckoo).
MSG_KV_GET = 7
MSG_KV_PUT = 8
MSG_KV_SCAN = 10
# Additional spatial operations.
MSG_NEAREST = 11
MSG_COUNT = 12
MSG_UPDATE = 13
#: Several range searches in one message, answered as one response.
MSG_SEARCH_BATCH = 14

#: Bytes of a rectangle: four doubles.
RECT_SIZE = 32
#: Request id (u64).
REQ_ID_SIZE = 8
#: Result entry: rectangle + data id.
RESULT_SIZE = RECT_SIZE + 8
#: A u32 count: queries in a batched search, or one query's match count
#: in its response.
COUNT_SIZE = 4
#: Wire footprint of a key-value PUT's value (the token itself is opaque).
KV_VALUE_SIZE = 32
#: Ring-buffer message header: size (u32) + type (u32).
MSG_HEADER_SIZE = 8
#: Maximum payload carried by one ring-buffer message; larger responses are
#: segmented with CONT/END (a fraction of the 256 KB ring so several
#: responses fit in flight).
MAX_SEGMENT_PAYLOAD = 8192


@dataclass(frozen=True)
class SearchRequest:
    req_id: int
    rect: Rect

    msg_type = MSG_SEARCH

    def payload_size(self) -> int:
        return REQ_ID_SIZE + RECT_SIZE


@dataclass(frozen=True)
class SearchBatchRequest:
    """Q range searches in one ring message (a shared session's batch);
    the response carries each query's matches in query order."""

    req_id: int
    rects: Tuple[Rect, ...]

    msg_type = MSG_SEARCH_BATCH

    def payload_size(self) -> int:
        return REQ_ID_SIZE + COUNT_SIZE + len(self.rects) * RECT_SIZE


@dataclass(frozen=True)
class InsertRequest:
    req_id: int
    rect: Rect
    data_id: int

    msg_type = MSG_INSERT

    def payload_size(self) -> int:
        return REQ_ID_SIZE + RECT_SIZE + 8


@dataclass(frozen=True)
class DeleteRequest:
    req_id: int
    rect: Rect
    data_id: int

    msg_type = MSG_DELETE

    def payload_size(self) -> int:
        return REQ_ID_SIZE + RECT_SIZE + 8


@dataclass(frozen=True)
class ResponseSegment:
    """One ring-buffer message of a (possibly multi-segment) response."""

    req_id: int
    results: Tuple[Tuple[Rect, int], ...]
    last: bool  # END if True, CONT otherwise
    #: For insert/delete acknowledgements.
    ok: bool = True
    #: For count responses: the aggregate (no rectangles shipped).
    count: Optional[int] = None
    #: On the END segment of a batched search's response: each query's
    #: match count, in query order, to split the concatenated results.
    splits: Optional[Tuple[int, ...]] = None

    @property
    def msg_type(self) -> int:
        return MSG_RESPONSE_END if self.last else MSG_RESPONSE_CONT

    def payload_size(self) -> int:
        size = REQ_ID_SIZE + 1 + len(self.results) * RESULT_SIZE
        if self.count is not None:
            size += COUNT_SIZE
        if self.splits is not None:
            size += COUNT_SIZE * len(self.splits)
        return size


@dataclass(frozen=True)
class UpdateRequest:
    """Move/resize one rectangle (the paper's "insert, update, delete and
    others"): atomically replaces ``old_rect`` with ``new_rect`` for
    ``data_id`` on the server."""

    req_id: int
    old_rect: Rect
    new_rect: Rect
    data_id: int

    msg_type = MSG_UPDATE

    def payload_size(self) -> int:
        return REQ_ID_SIZE + 2 * RECT_SIZE + 8


@dataclass(frozen=True)
class NearestRequest:
    """k-nearest-neighbour query around a point."""

    req_id: int
    x: float
    y: float
    k: int

    msg_type = MSG_NEAREST

    def payload_size(self) -> int:
        return REQ_ID_SIZE + 16 + 4

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


@dataclass(frozen=True)
class CountRequest:
    """Aggregate-only search: how many rectangles intersect?  The response
    carries a single integer instead of the matching rectangles — a
    bandwidth optimization for wide queries."""

    req_id: int
    rect: Rect

    msg_type = MSG_COUNT

    def payload_size(self) -> int:
        return REQ_ID_SIZE + RECT_SIZE


@dataclass(frozen=True)
class KvGetRequest:
    req_id: int
    key: int

    msg_type = MSG_KV_GET

    def payload_size(self) -> int:
        return REQ_ID_SIZE + 8


@dataclass(frozen=True)
class KvPutRequest:
    req_id: int
    key: int
    value: int

    msg_type = MSG_KV_PUT

    def payload_size(self) -> int:
        return REQ_ID_SIZE + 8 + KV_VALUE_SIZE


@dataclass(frozen=True)
class KvScanRequest:
    req_id: int
    lo: int
    hi: int
    max_results: Optional[int] = None

    msg_type = MSG_KV_SCAN

    def payload_size(self) -> int:
        return REQ_ID_SIZE + 8 + 8 + 4

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty scan range [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class Heartbeat:
    """Server CPU utilization piggybacked to clients every Inv (§IV-A).

    ``mut_seq`` optionally piggybacks the tree's mutation high-water
    mark as a client-cache invalidation hint (see
    :mod:`repro.client.node_cache`): a write storm then flushes stale
    upper-level views between searches without any extra round trips.
    ``None`` (the default) is the legacy wire format — the field is
    simply absent and the payload size is unchanged, so old senders and
    receivers interoperate bit-identically.
    """

    utilization: float
    seq: int = 0
    mut_seq: Optional[int] = None

    msg_type = MSG_HEARTBEAT

    def payload_size(self) -> int:
        size = 8 + 4  # f64 utilization + u32 sequence
        if self.mut_seq is not None:
            size += 8  # u64 mutation high-water mark (hint extension)
        return size


def message_size(message) -> int:
    """Total ring-buffer footprint: header + payload."""
    return MSG_HEADER_SIZE + message.payload_size()


def query_count(message) -> int:
    """How many queries a request message carries (a batch carries Q)."""
    if isinstance(message, SearchBatchRequest):
        return len(message.rects)
    return 1


def segment_results(
    req_id: int,
    results: List[Tuple[Rect, int]],
    max_payload: int = MAX_SEGMENT_PAYLOAD,
    ok: bool = True,
) -> List[ResponseSegment]:
    """Split a result set into CONT segments ending with one END segment."""
    fixed = REQ_ID_SIZE + 1
    per_segment = max(1, (max_payload - fixed) // RESULT_SIZE)
    if not results:
        return [ResponseSegment(req_id, (), last=True, ok=ok)]
    segments: List[ResponseSegment] = []
    for start in range(0, len(results), per_segment):
        chunk = tuple(results[start:start + per_segment])
        segments.append(
            ResponseSegment(req_id, chunk, last=False, ok=ok)
        )
    last = segments[-1]
    segments[-1] = ResponseSegment(req_id, last.results, last=True, ok=ok)
    return segments


def segment_batch_results(
    req_id: int,
    per_query: List[List[Tuple[Rect, int]]],
) -> List[ResponseSegment]:
    """A batched search's response: every query's matches concatenated
    in query order and segmented as one result set, the END segment
    carrying the per-query match counts (:func:`split_batch_results`
    inverts it)."""
    results = [match for matches in per_query for match in matches]
    splits = tuple(len(matches) for matches in per_query)
    # Every segment leaves room for the counts, so the END one fits.
    segments = segment_results(
        req_id, results,
        max_payload=MAX_SEGMENT_PAYLOAD - COUNT_SIZE * len(splits))
    last = segments[-1]
    segments[-1] = ResponseSegment(req_id, last.results, last=True,
                                   splits=splits)
    return segments


def split_batch_results(results: List[Tuple[Rect, int]],
                        splits: Tuple[int, ...]
                        ) -> List[List[Tuple[Rect, int]]]:
    """The per-query match lists of a batched search's response."""
    if sum(splits) != len(results):
        raise ValueError(
            f"splits {splits} do not cover {len(results)} results")
    out = []
    start = 0
    for n in splits:
        out.append(results[start:start + n])
        start += n
    return out


def reassemble(segments: List[ResponseSegment]) -> List[Tuple[Rect, int]]:
    """Concatenate CONT...END segments back into the full result list."""
    if not segments:
        raise ValueError("no segments to reassemble")
    if not segments[-1].last:
        raise ValueError("last segment is not flagged END")
    for seg in segments[:-1]:
        if seg.last:
            raise ValueError("END segment in the middle of a response")
    req_id = segments[0].req_id
    results: List[Tuple[Rect, int]] = []
    for seg in segments:
        if seg.req_id != req_id:
            raise ValueError(
                f"mixed req_ids {req_id} and {seg.req_id} in one response"
            )
        results.extend(seg.results)
    return results
