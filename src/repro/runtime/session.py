"""The generic client session driving any :class:`PathPolicy`.

One execution skeleton serves every scheme over every index: writes
always travel the fast-messaging path (the server's lock manager must
serialize them, paper §III-B); reads ask the policy, honour the optional
offload circuit breaker (an open breaker demotes the decision to fast
messaging; an ``OffloadError`` under a breaker fails over instead of
propagating), annotate a trace span, and report the executed path and
its latency back to the policy.

This is the paper's §VI framework claim made literal: the session knows
no index.  Which ops are reads is the fast-messaging session's request
vocabulary (``fm.read_ops``), and serving one by one-sided reads is the
engine's ``read(request)`` — R-tree, B+tree and cuckoo each supply the
pair; Algorithm 1, the bandit and the two fixed baselines are
:class:`~repro.runtime.policy.PathPolicy` objects handed to the same
class.

Layering note: this module imports ``OffloadError`` from
:mod:`repro.client.offload_client`, so nothing under :mod:`repro.client`
may import it back (client code needs :mod:`repro.runtime.policy` only).
"""

from __future__ import annotations

from typing import Generator

from ..client.offload_client import OffloadError
from ..obs.trace import NULL_TRACER
from ..sim.kernel import Simulator
from .policy import PATH_FM, PATH_OFFLOAD, PathPolicy


class PolicySession:
    """Execute requests, choosing the access path via a pluggable policy."""

    def __init__(
        self,
        sim: Simulator,
        fm,
        engine,
        stats,
        policy: PathPolicy,
        tracer=None,
        breaker=None,
    ):
        self.policy = policy
        self.sim = sim
        self.fm = fm
        self.engine = engine
        self.stats = stats
        #: Only reads may bypass the server (writes need its locks).
        self.offloadable_ops = fm.read_ops
        #: Component name under which this session's spans are traced.
        self.trace_component = policy.trace_component
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Optional offload circuit breaker: when set, an OffloadError is
        #: recorded and the request falls over to fast messaging instead
        #: of propagating; a tripped breaker short-circuits offloading
        #: until a recovery probe succeeds.  When None, errors propagate
        #: (the seed behaviour).
        self.breaker = breaker

    # -- request execution -------------------------------------------------

    def execute(self, request) -> Generator:
        """Run one request, choosing the access path per the policy."""
        policy = self.policy
        span = self.tracer.span(self.trace_component, request.op)
        if request.op not in self.offloadable_ops:
            # Writes always go to the server through the ring buffer.
            span.annotate("decide", path=PATH_FM, reason="write")
            result = yield from self.fm.execute(request)
            span.end(path=PATH_FM)
            return result
        if policy.decide_offload():
            breaker = self.breaker
            if breaker is not None and not breaker.allow():
                # Offload path tripped: route through the server until a
                # recovery probe succeeds.
                policy.note_fm(forced=True)
                span.annotate("decide", path=PATH_FM,
                              reason="breaker-open")
                start = self.sim.now
                result = yield from self.fm.execute(request)
                policy.observe(request, PATH_FM, self.sim.now - start)
                span.end(path=PATH_FM)
                return result
            policy.note_offload()
            span.annotate("decide", path=PATH_OFFLOAD,
                          **policy.offload_annotations())
            start = self.sim.now
            try:
                result = yield from self.engine.read(request)
            except OffloadError:
                if breaker is None:
                    raise  # seed behaviour: offload failures propagate
                # Torn-read/restart storm: record it and fail over — the
                # server-side path serves the same request under locks.
                breaker.record_failure()
                policy.note_failover()
                span.annotate("failover", reason="offload-error",
                              breaker=breaker.state)
                result = yield from self.fm.execute(request)
                policy.observe(request, PATH_OFFLOAD,
                               self.sim.now - start, failed_over=True)
                span.end(path="fm-failover")
                return result
            if breaker is not None:
                breaker.record_success()
            policy.observe(request, PATH_OFFLOAD, self.sim.now - start)
            span.end(path=PATH_OFFLOAD)
        else:
            policy.note_fm()
            span.annotate("decide", path=PATH_FM,
                          **policy.fm_annotations())
            start = self.sim.now
            result = yield from self.fm.execute(request)
            policy.observe(request, PATH_FM, self.sim.now - start)
            span.end(path=PATH_FM)
        return result

    def execute_search_batch(self, requests, on_done=None) -> Generator:
        """Run a group of search requests as one batch.

        One policy decision covers the whole group (a batched client
        commits the group to a path up front); the ``note_*`` /
        ``observe`` hooks still fire once per request so the policy's
        request-level accounting stays aligned with its counters — each
        request observes the batch wall time, which is exactly how long
        it waited here: the group travels as one message or one
        traversal, so every answer lands at the batch's end.  That is
        also when ``on_done(i, result)`` fires for ``requests[i]``, for
        every request in order.  The batch wall time is a request's
        whole latency only at K = 1 and in the closed-loop driver; a
        scatter-gather router finishes each request of its batch when
        its own shards' sub-batches are in.  Fast messaging sends
        the group as one request message
        (:meth:`~repro.client.fm_client.FmSession.search_batch`), the
        offload path runs one shared one-sided traversal
        (``engine.search_batch``), and an offload failure under a
        breaker fails the group over to one batched message.  A group
        of one runs :meth:`execute`.
        """
        if len(requests) <= 1:
            results = []
            for request in requests:
                result = yield from self.execute(request)
                results.append(result)
            return _delivered(results, on_done)
        policy = self.policy
        breaker = self.breaker
        span = self.tracer.span(self.trace_component, "search-batch")
        rects = [request.rect for request in requests]
        if not policy.decide_offload():
            for request in requests:
                policy.note_fm()
            span.annotate("decide", path=PATH_FM,
                          **policy.fm_annotations())
            path = PATH_FM
        elif breaker is not None and not breaker.allow():
            for request in requests:
                policy.note_fm(forced=True)
            span.annotate("decide", path=PATH_FM, reason="breaker-open")
            path = PATH_FM
        else:
            path = PATH_OFFLOAD
        start = self.sim.now
        if path == PATH_FM:
            results = yield from self.fm.search_batch(rects)
            self._observe_all(requests, PATH_FM, start)
            span.end(path=PATH_FM, queries=len(requests))
            return _delivered(results, on_done)
        for request in requests:
            policy.note_offload()
        span.annotate("decide", path=PATH_OFFLOAD,
                      **policy.offload_annotations())
        try:
            results = yield from self.engine.search_batch(rects)
        except OffloadError:
            if breaker is None:
                raise
            breaker.record_failure()
            for request in requests:
                policy.note_failover()
            span.annotate("failover", reason="offload-error",
                          breaker=breaker.state)
            results = yield from self.fm.search_batch(rects)
            self._observe_all(requests, PATH_OFFLOAD, start,
                              failed_over=True)
            span.end(path="fm-failover", queries=len(requests))
            return _delivered(results, on_done)
        if breaker is not None:
            breaker.record_success()
        self._observe_all(requests, PATH_OFFLOAD, start)
        span.end(path=PATH_OFFLOAD, queries=len(requests))
        return _delivered(results, on_done)

    def _observe_all(self, requests, path: str, start: float,
                     failed_over: bool = False) -> None:
        """Report the batch wall time since ``start`` for each request."""
        elapsed = self.sim.now - start
        for request in requests:
            self.policy.observe(request, path, elapsed,
                                failed_over=failed_over)


def _delivered(results, on_done):
    """Hand every result of a finished batch to ``on_done(i, result)``
    (when given), in order; returns ``results``."""
    if on_done is not None:
        for i, result in enumerate(results):
            on_done(i, result)
    return results
