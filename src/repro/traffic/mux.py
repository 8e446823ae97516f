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

Shed jobs are counted, never blocked on: the offered load stays
open-loop.  Jobs that a session fails (retry budget exhausted, offload
error) are counted as ``failed`` — together with the server's own
``requests_shed`` counter this gives exact conservation:
``offered == completed + failed + shed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..client.base import Request
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
    #: Completion callback (set by the owning aggregate).
    on_done: Optional[Callable[["TrafficJob"], None]] = None

    @property
    def sojourn(self) -> float:
        """Arrival-to-completion time — the open-loop latency."""
        return self.t_done - self.t_arrival


#: Dispatcher shutdown sentinel (queued behind all real jobs).
_CLOSE = object()


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
        #: Simulated timestamps of every front-end shed (phase analysis).
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
            self.shed_times.append(self.sim.now)
            return False
        if self.bucket is not None and not self.bucket.try_take(self.sim.now):
            job.status = SHED_ADMISSION
            self.shed_admission += 1
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

    def _dispatch(self, session):
        while True:
            job = yield self.queue.get()
            if job is _CLOSE:
                return
            job.t_start = self.sim.now
            try:
                job.results = yield from session.execute(job.request)
                job.status = OK
                self.completed += 1
            except (RequestTimeoutError, OffloadError):
                job.status = FAILED
                self.failed += 1
            job.t_done = self.sim.now
            if self.record:
                self.finished_jobs.append(job)
            if job.on_done is not None:
                job.on_done(job)

    # -- metrics -----------------------------------------------------------

    def register_metrics(self, metrics, prefix: str = "traffic") -> None:
        expose_fields(metrics, prefix, [self],
                      ("offered", "admitted", "completed", "failed",
                       "shed_watermark", "shed_admission"))
        metrics.expose(f"{prefix}.queue_depth", lambda: len(self.queue))
