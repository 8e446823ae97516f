"""Server-side concurrency control for the R-tree.

The paper (§II-A, §III-A) adopts the high-concurrency R-tree locking of
Kornacker & Banks for server threads: searches take shared (read) locks,
mutations take exclusive (write) locks, preventing read-write and
write-write conflicts between server threads.  One-sided RDMA reads bypass
these locks entirely — that is what the version-number mechanism in
:mod:`repro.rtree.versioning` is for.

:class:`RWLock` is writer-preferring to avoid writer starvation under the
paper's search-heavy workloads.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Tuple

from ..sim.kernel import Event, Simulator


class RWLock:
    """A readers-writer lock for simulation processes."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._readers = 0
        self._writer = False
        #: queue of (event, is_writer) in arrival order
        self._waiting: Deque[Tuple[Event, bool]] = deque()
        #: writers currently in ``_waiting`` (kept so the writer-preference
        #: check in acquire_read is O(1) instead of scanning the queue)
        self._waiting_writers = 0
        self.read_acquisitions = 0
        self.write_acquisitions = 0

    # -- acquisition --------------------------------------------------------

    def acquire_read(self) -> Event:
        """Event that succeeds when the shared lock is held.

        The caller waits on it at once: an uncontended grant is a
        same-instant hop (:meth:`~repro.sim.kernel.Simulator.hop`), so
        the event may come back already processed."""
        event = self.sim.event()
        if not self._writer and self._waiting_writers == 0:
            self._readers += 1
            self.read_acquisitions += 1
            self.sim.hop(event)
        else:
            self._waiting.append((event, False))
        return event

    def acquire_write(self) -> Event:
        """Event that succeeds when the exclusive lock is held (waited on
        at once, like :meth:`acquire_read`)."""
        event = self.sim.event()
        if not self._writer and self._readers == 0 and not self._waiting:
            self._writer = True
            self.write_acquisitions += 1
            self.sim.hop(event)
        else:
            self._waiting.append((event, True))
            self._waiting_writers += 1
        return event

    # -- release -------------------------------------------------------------

    def release_read(self) -> None:
        if self._readers <= 0:
            raise RuntimeError("release_read() without a held read lock")
        self._readers -= 1
        self._dispatch()

    def release_write(self) -> None:
        if not self._writer:
            raise RuntimeError("release_write() without a held write lock")
        self._writer = False
        self._dispatch()

    def _dispatch(self) -> None:
        if self._writer:
            return
        while self._waiting:
            event, is_writer = self._waiting[0]
            if is_writer:
                if self._readers == 0:
                    self._waiting.popleft()
                    self._waiting_writers -= 1
                    self._writer = True
                    self.write_acquisitions += 1
                    event.succeed()
                return
            self._waiting.popleft()
            self._readers += 1
            self.read_acquisitions += 1
            event.succeed()

    @property
    def held(self) -> str:
        if self._writer:
            return "write"
        if self._readers:
            return f"read({self._readers})"
        return "free"


class TreeLockManager:
    """Per-node reader-writer locks, created lazily.

    The server threads use coarse two-phase access: a search read-locks the
    nodes it visits; a mutation write-locks the nodes it changes (sorted by
    chunk id, so no two threads deadlock; see
    :func:`~repro.server.plan.run_plan`).  Lock objects are keyed by chunk
    id so they survive node relocation.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._locks: Dict[int, RWLock] = {}

    def lock_for(self, chunk_id: int) -> RWLock:
        lock = self._locks.get(chunk_id)
        if lock is None:
            lock = RWLock(self.sim)
            self._locks[chunk_id] = lock
        return lock

    @property
    def lock_count(self) -> int:
        return len(self._locks)
