"""Client-side resilience: request deadlines, retries, circuit breaking.

Catfish's hybrid design gives a client two independent paths to the same
data (fast messaging and one-sided offloading), but the seed reproduction
had no way to *survive* a misbehaving path: a full ring blocked forever, a
lost response stalled the client for good, and an ``OffloadError`` storm
simply propagated.  This module supplies the three mechanisms the fault
model (``repro.faults``) demands:

* :class:`RetryPolicy` — per-request deadline plus jittered
  exponential-backoff retry budget for :class:`~repro.client.fm_client.FmSession`;
* :class:`RequestTimeoutError` — raised when the budget is exhausted;
* :class:`CircuitBreaker` — closed/open/half-open failover state for the
  adaptive client: after repeated offload failures it routes everything
  through fast messaging and periodically probes the offload path for
  recovery.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..sim.kernel import Simulator
from .base import READ_OPS


class RequestTimeoutError(Exception):
    """A request's deadline/retry budget was exhausted without a response."""


#: Default budgets of a one-sided traversal: re-reads of one torn chunk,
#: and restarts from the root, before it gives up with an ``OffloadError``.
#: The offload engines' constructors and :class:`RetryPolicy` both
#: default to these.
OFFLOAD_READ_RETRIES = 8
OFFLOAD_SEARCH_RESTARTS = 8
#: Seconds a one-sided re-read waits per failed attempt: the n-th re-read
#: of a chunk starts ``n * OFFLOAD_RETRY_BACKOFF`` after the failure.
OFFLOAD_RETRY_BACKOFF = 1e-6


#: Growth of the fast-messaging retry backoff per failed attempt, and
#: its relative jitter: the wait after failed attempt ``n`` is
#: ``backoff_base_s * BACKOFF_FACTOR**n``, scaled by a uniform draw from
#: ``[1 - BACKOFF_JITTER, 1 + BACKOFF_JITTER]``.
BACKOFF_FACTOR = 2.0
BACKOFF_JITTER = 0.5


@dataclass(frozen=True)
class RetryPolicy:
    """Deadline + retry tunables for fast-messaging requests.

    One *attempt* is: reserve ring space and post the write, then wait
    for the complete response; the reservation and the wait are each
    bounded by :attr:`deadline_s`.  A failed attempt backs off (see
    :data:`BACKOFF_FACTOR`) before the next try.

    A write gets one attempt: a timed-out insert may have executed on
    the server (the response, not the request, may be what got delayed),
    and blindly re-sending would double-apply it.  Reads are idempotent,
    so they get the full budget.

    The offload path's budgets live here too, so a bounded-retry
    invariant reads every bound from one object: a scenario that wants
    ``OffloadError`` s in microseconds rather than after the default
    grind tightens them exactly as it tightens the deadline.
    """

    deadline_s: float = 2e-3
    max_attempts: int = 4
    backoff_base_s: float = 50e-6
    #: Re-reads of one torn chunk before the traversal restarts.
    offload_read_retries: int = OFFLOAD_READ_RETRIES
    #: Restarts from the root before the request fails (``OffloadError``).
    offload_search_restarts: int = OFFLOAD_SEARCH_RESTARTS

    def __post_init__(self):
        if self.deadline_s <= 0:
            raise ValueError(f"deadline must be > 0, got {self.deadline_s}")
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base_s < 0:
            raise ValueError(
                f"backoff_base_s must be >= 0, got {self.backoff_base_s}")
        if self.offload_read_retries < 1 or self.offload_search_restarts < 1:
            raise ValueError(
                f"offload budgets must be >= 1, got "
                f"{self.offload_read_retries} read retries / "
                f"{self.offload_search_restarts} search restarts"
            )

    def attempts_for(self, op: str, read_ops=READ_OPS) -> int:
        """Retry budget for ``op``: a write gets one attempt."""
        return self.max_attempts if op in read_ops else 1

    def backoff_s(self, attempt: int, rng: random.Random) -> float:
        """Jittered exponential delay before attempt ``attempt + 1``."""
        base = self.backoff_base_s * BACKOFF_FACTOR ** attempt
        return base * (1.0 + BACKOFF_JITTER * (2.0 * rng.random() - 1.0))


# Circuit-breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


@dataclass(frozen=True)
class BreakerParams:
    """Circuit-breaker tunables for the adaptive client's offload path."""

    #: Consecutive failures (from CLOSED) that trip the breaker.
    failure_threshold: int = 3
    #: Initial OPEN hold before the first recovery probe.
    cooldown_s: float = 2e-3
    #: Cooldown growth per failed probe (capped by ``max_cooldown_s``).
    cooldown_factor: float = 2.0
    max_cooldown_s: float = 50e-3

    def __post_init__(self):
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.cooldown_s <= 0 or self.max_cooldown_s < self.cooldown_s:
            raise ValueError("need 0 < cooldown_s <= max_cooldown_s")
        if self.cooldown_factor < 1.0:
            raise ValueError(
                f"cooldown_factor must be >= 1, got {self.cooldown_factor}"
            )


class CircuitBreaker:
    """Fail over from offloading after repeated errors; probe for recovery.

    State machine (queried via :meth:`allow` before every offload):

    * **closed** — offloading allowed.  ``failure_threshold`` consecutive
      failures trip it open.
    * **open** — offloading short-circuited (the adaptive client falls
      back to fast messaging).  After the cooldown elapses the next
      ``allow()`` transitions to half-open.
    * **half-open** — one probe request is let through.  Success closes
      the breaker (and resets the cooldown); failure re-opens it with the
      cooldown grown by ``cooldown_factor``.
    """

    def __init__(self, sim: Simulator,
                 params: BreakerParams = BreakerParams()):
        self.sim = sim
        self.params = params
        self.state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._cooldown = params.cooldown_s
        self.trips = 0
        self.probes = 0
        self.recoveries = 0
        self.short_circuits = 0

    def allow(self) -> bool:
        """Whether the next offload may proceed (may move OPEN→HALF_OPEN)."""
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if self.sim.now - self._opened_at >= self._cooldown:
                self.state = HALF_OPEN
                self.probes += 1
                return True
            self.short_circuits += 1
            return False
        # HALF_OPEN: the probe's outcome has not been recorded yet.  Each
        # client session is synchronous, so at most one request is in
        # flight — letting it through keeps probing live.
        self.probes += 1
        return True

    def record_success(self) -> None:
        if self.state != CLOSED:
            self.recoveries += 1
            self._cooldown = self.params.cooldown_s
        self.state = CLOSED
        self._failures = 0

    def record_failure(self) -> None:
        self._failures += 1
        if self.state == HALF_OPEN:
            # Failed probe: back off harder before the next one.
            self._cooldown = min(self._cooldown * self.params.cooldown_factor,
                                 self.params.max_cooldown_s)
            self._open()
        elif (self.state == CLOSED
              and self._failures >= self.params.failure_threshold):
            self._open()

    def _open(self) -> None:
        self.state = OPEN
        self._opened_at = self.sim.now
        self.trips += 1
