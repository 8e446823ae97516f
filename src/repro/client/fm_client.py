"""Fast-messaging client (paper §III-A).

Sends requests with RDMA Write into the server's ring buffer and collects
CONT/END response segments from its own ring buffer.  The response ring
hands each message to the session as it lands, which routes it by type:
heartbeats go to the ``u_serv`` mailbox (Algorithm 1), response segments
go to the in-flight request, which wakes by a same-instant hop.  Messages
of an unknown type are counted and dropped — a malformed message must not
kill the client.

With a :class:`~repro.client.resilience.RetryPolicy` attached, every
request gets a deadline and a jittered exponential-backoff retry budget:
a timed-out attempt is *abandoned* (its request id is remembered so
late-arriving segments are suppressed as duplicates, never delivered) and
the request is re-sent under a fresh id.  Ring reservations become
bounded waits (``reserve_within``) so a wedged server cannot block the
client forever.  Without a policy a request is one attempt that blocks
on ring space and waits for its response with no deadline.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Generator, List, Optional, Set, Tuple

from ..msg.codec import (
    Heartbeat,
    ResponseSegment,
    SearchBatchRequest,
    split_batch_results,
)
from ..msg.ringbuffer import RingBufferFullError
from ..rtree.geometry import Rect
from ..server.fast_messaging import FmConnection
from ..sim.kernel import Simulator, any_of
from ..sim.resources import Mailbox
from .base import (
    OP_COUNT,
    OP_SEARCH,
    READ_OPS,
    ClientStats,
    Request,
    RequestIdAllocator,
    encode_request,
)
from .resilience import RequestTimeoutError, RetryPolicy

#: Internal marker: an attempt expired before its END segment arrived.
_TIMED_OUT = object()


class FmSession:
    """One client's fast-messaging endpoint."""

    #: The ops of this session's request vocabulary that only read the
    #: index: they may bypass the server (§III-B) and are safe to re-send
    #: after a timeout.
    read_ops = READ_OPS

    def __init__(
        self,
        sim: Simulator,
        conn: FmConnection,
        client_id: int,
        stats: ClientStats,
        retry: Optional[RetryPolicy] = None,
        rng: Optional[random.Random] = None,
    ):
        self.sim = sim
        self.conn = conn
        self.stats = stats
        self.retry = retry
        self.rng = rng or random.Random(client_id)
        self._ids = RequestIdAllocator(client_id)
        #: Response segments for the request in flight.
        self._segments = Mailbox(sim)
        #: Request ids whose attempt was abandoned (deadline expired);
        #: their late segments are suppressed, not delivered.
        self._abandoned: Set[int] = set()
        self.heartbeats_seen = 0
        conn.response_ring.deliver_to(self._route)

    @property
    def mailbox(self):
        """The ``u_serv`` heartbeat mailbox (used by the adaptive client)."""
        return self.conn.mailbox

    def _route(self, message) -> None:
        """Route one message of the response ring as it lands."""
        if isinstance(message, Heartbeat):
            self.conn.mailbox.deliver(message)
            self.heartbeats_seen += 1
        elif isinstance(message, ResponseSegment):
            if message.req_id in self._abandoned:
                # Late answer to a timed-out attempt: swallow it here so
                # it can never be mistaken for the current request's
                # response.  Forget the id once the END segment has
                # passed.
                self.stats.duplicates_suppressed += 1
                if message.last:
                    self._abandoned.discard(message.req_id)
                return
            self._segments.put(message)
        else:
            # Unknown message type: drop and count, never crash the
            # client (a wedged receive path wedges the whole client).
            self.stats.unexpected_messages += 1

    # -- request execution -----------------------------------------------------

    def _make_wire(self, request: Request):
        """Encode ``request`` under a fresh request id."""
        return encode_request(self._ids.next_id(), request)

    def execute(self, request: Request) -> Generator:
        """Run one request through fast messaging; returns the results."""
        self.stats.fast_messaging_requests += 1
        results, count, end = yield from self._call(
            request.op, lambda: self._make_wire(request))
        return self._finish(request, results, count, end.ok)

    def search_batch(self, rects: List[Rect]) -> Generator:
        """Q range searches as one request message; returns each query's
        matches, in query order (the server runs one shared traversal,
        :meth:`~repro.server.base.RTreeServer.plan_search_batch`).  The
        batch is one attempt under the retry policy: it is re-sent, and
        fails, as a whole."""
        self.stats.fast_messaging_requests += len(rects)
        rects = tuple(rects)
        results, _count, end = yield from self._call(
            OP_SEARCH, lambda: SearchBatchRequest(self._ids.next_id(), rects))
        self.stats.results_received += len(results)
        return split_batch_results(results, end.splits)

    def _call(self, op: str, make_wire: Callable[[], Any]) -> Generator:
        """Send a fresh ``make_wire()`` until one attempt's response is
        complete; returns its (results, count, END segment).  ``op``
        decides how many attempts the retry policy grants."""
        policy = self.retry
        if policy is None:
            attempts, deadline_s = 1, None
        else:
            attempts = policy.attempts_for(op, self.read_ops)
            deadline_s = policy.deadline_s
        ring = self.conn.request_ring
        for attempt in range(attempts):
            wire = make_wire()
            # Ring-buffer flow control, then the actual RDMA Write (w/ IMM
            # in event mode); the client continues once the write is
            # acknowledged.
            if policy is None:
                yield from ring.reserve(wire)
            else:
                try:
                    yield from ring.reserve_within(wire, deadline_s)
                except RingBufferFullError:
                    self.stats.ring_full_timeouts += 1
                    if attempt + 1 >= attempts:
                        raise RequestTimeoutError(
                            f"{op}: request ring still full after "
                            f"{attempts} bounded reservation(s)"
                        ) from None
                    self.stats.request_retries += 1
                    yield self.sim.timeout(policy.backoff_s(attempt,
                                                            self.rng))
                    continue
            yield self.conn.client_post_request(wire)
            outcome = yield from self._collect(wire, deadline_s)
            if outcome is not _TIMED_OUT:
                return outcome
            self.stats.request_timeouts += 1
            if attempt + 1 < attempts:
                self.stats.request_retries += 1
                yield self.sim.timeout(policy.backoff_s(attempt, self.rng))
        raise RequestTimeoutError(
            f"{op} got no response within {attempts} attempt(s) "
            f"of {deadline_s * 1e6:.0f} us each"
        )

    def _collect(self, wire, deadline_s: Optional[float]) -> Generator:
        """Gather segments for ``wire`` until END — (results, count, END
        segment) — or ``_TIMED_OUT`` once ``deadline_s`` (None: no
        deadline) has passed."""
        sim = self.sim
        deadline = None if deadline_s is None else sim.now + deadline_s
        results: List[Tuple[Rect, int]] = []
        count: Optional[int] = None
        while True:
            get = self._segments.get()
            if get._ok is not None or deadline is None:
                segment = yield get
            else:
                remaining = deadline - sim.now
                if remaining <= 0:
                    self._segments.withdraw(get)
                    self._abandoned.add(wire.req_id)
                    return _TIMED_OUT
                yield any_of(sim, (get, sim.timeout(remaining)))
                if get._ok is None:
                    self._segments.withdraw(get)
                    self._abandoned.add(wire.req_id)
                    return _TIMED_OUT
                segment = get._value
            if segment.req_id != wire.req_id:
                # A stale segment that reached the store before its
                # attempt was abandoned.  Suppress it exactly like the
                # receiver would have.
                self.stats.duplicates_suppressed += 1
                if segment.last:
                    self._abandoned.discard(segment.req_id)
                continue
            results.extend(segment.results)
            if segment.count is not None:
                count = segment.count
            if segment.last:
                break
        return results, count, segment

    def _finish(self, request: Request, results, count, ok: bool):
        """A read's matches or count; a write's ack (the END segment's
        ``ok``: whether an insert landed, a delete or update found its
        item)."""
        if request.op not in self.read_ops:
            return ok
        if request.op == OP_COUNT:
            self.stats.results_received += count or 0
            return count
        self.stats.results_received += len(results)
        return results

    def search(self, rect: Rect) -> Generator:
        result = yield from self.execute(Request(OP_SEARCH, rect))
        return result
