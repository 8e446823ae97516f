"""RDMAvisor-style connection multiplexing with front-end admission.

Per-client QPs are the scaling wall for RDMA services (Wang et al.,
RDMAvisor): a million users cannot each own an endpoint.  The
:class:`ConnectionMux` therefore owns a small pool of shared sessions
(QPs) and fans every aggregated client's jobs onto them through one FIFO
queue, guarded by two admission controls applied *before* a job ever
touches a session:

* a **queue-depth watermark** — jobs arriving while more than
  ``watermark`` jobs wait for a session are shed (the queue has outrun
  any deadline a user would still be waiting on — the client-side twin
  of the server's ``max_queue_depth`` guard from the overload PR);
* an optional **token bucket** — a hard ceiling on the admitted rate
  regardless of queue state.

A session carries one *batch* at a time: a dispatcher that takes a
search job also takes the searches queued behind it, oldest first, up
to :data:`MAX_BATCH`, and runs them as one
``session.execute_search_batch`` (one fast-messaging request or one
shared offload traversal per shard; RDMAvisor's few shared QPs
carrying many requests).  Jobs queue only while every session is busy,
so below the knee every group is one job and runs ``session.execute``.
Each job of a batch completes at its own instant: the session hands
every answer back through a per-request callback as soon as it lands
(a scatter-gather router when the last of that request's own shards
answers; a single-shard session at the batch's end), and the session
itself stays busy until the whole batch is done.

Shed jobs are counted, never blocked on: the offered load stays
open-loop.  Jobs that a session fails (retry budget exhausted, offload
error) are counted as ``failed`` — together with the server's own
``requests_shed`` counter this gives exact conservation:
``offered == completed + failed + shed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional

from ..client.base import OP_SEARCH, Request
from ..client.offload_client import OffloadError
from ..client.resilience import RequestTimeoutError
from ..obs.registry import expose_fields
from ..sim.kernel import Simulator
from ..sim.resources import Store

#: Job outcomes.
OK = "ok"
FAILED = "failed"
SHED_WATERMARK = "shed-watermark"
SHED_ADMISSION = "shed-admission"


class TokenBucket:
    """Deterministic lazily-refilled token bucket (no RNG, no process).

    Tokens accrue continuously at ``rate`` per simulated second up to
    ``burst``; :meth:`try_take` is O(1) and never blocks — admission
    control must not add queueing of its own.
    """

    def __init__(self, rate: float, burst: int):
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = rate
        self.burst = float(burst)
        self.tokens = float(burst)
        self._last = 0.0

    def try_take(self, now: float) -> bool:
        if now > self._last:
            self.tokens = min(
                self.burst, self.tokens + (now - self._last) * self.rate
            )
            self._last = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


@dataclass
class TrafficJob:
    """One virtual user's request travelling through the mux."""

    aggregate_id: int
    seq: int               # per-aggregate arrival sequence number
    user_id: int
    tenant: str
    request: Request
    t_arrival: float
    status: str = ""
    t_start: float = float("nan")   # picked up by a session
    t_done: float = float("nan")
    results: object = None
    #: Called once the job is done (set by the owning aggregate).
    on_done: Optional[Callable[["TrafficJob"], None]] = None

    @property
    def sojourn(self) -> float:
        """Arrival-to-completion time — the open-loop latency."""
        return self.t_done - self.t_arrival


#: Dispatcher shutdown sentinel (queued behind all real jobs).
_CLOSE = object()

#: Most jobs one session carries at once: the batch size of the
#: ``batch-search`` claims row.
MAX_BATCH = 8


class ConnectionMux:
    """Shared-session front-end: one queue, ``len(sessions)`` consumers.

    ``record`` keeps every finished job (completed *and* failed) for
    oracle checks and fingerprinting — the chaos harness turns it on;
    the benchmark harness leaves it off and reads counters only.
    """

    def __init__(
        self,
        sim: Simulator,
        sessions: List,
        watermark: int,
        bucket: Optional[TokenBucket] = None,
        record: bool = False,
    ):
        if watermark < 1:
            raise ValueError(f"watermark must be >= 1, got {watermark}")
        if not sessions:
            raise ValueError("need at least one shared session")
        self.sim = sim
        self.sessions = sessions
        self.watermark = watermark
        self.bucket = bucket
        self.record = record

        self.queue = Store(sim)
        self.offered = 0
        self.admitted = 0
        self.completed = 0
        self.failed = 0
        self.shed_watermark = 0
        self.shed_admission = 0
        #: Groups of two or more jobs dispatched as one batch, and the
        #: jobs they carried.
        self.batches = 0
        self.batched_jobs = 0
        #: With ``record``, the simulated time of every front-end shed
        #: (phase analysis).
        self.shed_times: List[float] = []
        self.finished_jobs: List[TrafficJob] = []
        self._closed = False
        self.dispatchers = [
            sim.process(self._dispatch(session), name=f"mux-session-{i}")
            for i, session in enumerate(sessions)
        ]

    # -- admission ---------------------------------------------------------

    def offer(self, job: TrafficJob) -> bool:
        """Admit or shed ``job``; True iff admitted.  Never blocks."""
        if self._closed:
            raise RuntimeError("offer() after close()")
        self.offered += 1
        if len(self.queue) >= self.watermark:
            job.status = SHED_WATERMARK
            self.shed_watermark += 1
            if self.record:
                self.shed_times.append(self.sim.now)
            return False
        if self.bucket is not None and not self.bucket.try_take(self.sim.now):
            job.status = SHED_ADMISSION
            self.shed_admission += 1
            if self.record:
                self.shed_times.append(self.sim.now)
            return False
        self.admitted += 1
        self.queue.put_discard(job)
        return True

    def close(self) -> None:
        """No more offers; dispatchers exit once the backlog drains."""
        if self._closed:
            return
        self._closed = True
        for _ in self.dispatchers:
            self.queue.put_discard(_CLOSE)

    # -- dispatch ----------------------------------------------------------

    def _harvest(self, job: TrafficJob, limit: int) -> List[TrafficJob]:
        """``job`` and the searches queued right behind it, oldest
        first, up to ``limit`` jobs (none unless ``job`` is one)."""
        group = [job]
        waiting = self.queue.items
        if limit > 1 and waiting and job.request.op == OP_SEARCH:
            while (len(group) < limit and waiting
                   and waiting[0] is not _CLOSE
                   and waiting[0].request.op == OP_SEARCH):
                group.append(waiting.popleft())
        return group

    def _dispatch(self, session):
        # A session that cannot batch carries one job at a time.
        limit = (MAX_BATCH if hasattr(session, "execute_search_batch")
                 else 1)
        while True:
            job = yield self.queue.get()
            if job is _CLOSE:
                return
            group = self._harvest(job, limit)
            now = self.sim.now
            for member in group:
                member.t_start = now
            if len(group) == 1:
                try:
                    outcome = yield from session.execute(job.request)
                except (RequestTimeoutError, OffloadError):
                    self._finish(group, 0, None, FAILED)
                else:
                    self._finish(group, 0, outcome)
                continue
            self.batches += 1
            self.batched_jobs += len(group)
            try:
                yield from session.execute_search_batch(
                    [member.request for member in group],
                    partial(self._finish, group))
            except (RequestTimeoutError, OffloadError):
                for i, member in enumerate(group):
                    if not member.status:
                        self._finish(group, i, None, FAILED)

    def _finish(self, group: List[TrafficJob], i: int, outcome,
                status: str = OK) -> None:
        """Complete (or fail) ``group[i]`` now and hand it to its owner
        (the per-request callback a batching session calls)."""
        job = group[i]
        job.results = outcome
        job.status = status
        job.t_done = self.sim.now
        if status == OK:
            self.completed += 1
        else:
            self.failed += 1
        if self.record:
            self.finished_jobs.append(job)
        if job.on_done is not None:
            job.on_done(job)

    # -- metrics -----------------------------------------------------------

    def register_metrics(self, metrics, prefix: str = "traffic") -> None:
        expose_fields(metrics, prefix, [self],
                      ("offered", "admitted", "completed", "failed",
                       "shed_watermark", "shed_admission", "batches",
                       "batched_jobs"))
        metrics.expose(f"{prefix}.queue_depth", lambda: len(self.queue))
