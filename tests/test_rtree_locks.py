"""Tests for the reader-writer lock and the tree lock manager."""

from types import SimpleNamespace

import pytest

from repro.hw import CorePool
from repro.rtree import RWLock, TreeLockManager
from repro.rtree.versioning import WriteTracker
from repro.server.plan import OpPlan, run_plan
from repro.sim import Simulator


def _body(sim, log, tag, hold):
    log.append((f"{tag}-in", sim.now))
    yield sim.timeout(hold)
    log.append((f"{tag}-out", sim.now))


def _locked(lock, write, body):
    """Run ``body`` (a process generator) holding ``lock``."""
    yield lock.acquire_write() if write else lock.acquire_read()
    yield from body
    if write:
        lock.release_write()
    else:
        lock.release_read()


class TestRWLock:
    def test_readers_share(self):
        sim = Simulator()
        lock = RWLock(sim)
        log = []

        def reader(tag):
            yield from _locked(lock, False, _body(sim, log, tag, 5.0))

        sim.process(reader("r1"))
        sim.process(reader("r2"))
        sim.run()
        assert ("r1-in", 0.0) in log
        assert ("r2-in", 0.0) in log

    def test_writer_excludes_readers(self):
        sim = Simulator()
        lock = RWLock(sim)
        log = []

        def writer():
            yield from _locked(lock, True, _body(sim, log, "w", 5.0))

        def reader():
            yield sim.timeout(1.0)
            yield from _locked(lock, False, _body(sim, log, "r", 1.0))

        sim.process(writer())
        sim.process(reader())
        sim.run()
        assert log.index(("w-out", 5.0)) < log.index(("r-in", 5.0))

    def test_writers_exclude_each_other(self):
        sim = Simulator()
        lock = RWLock(sim)
        log = []

        def writer(tag):
            yield from _locked(lock, True, _body(sim, log, tag, 3.0))

        sim.process(writer("w1"))
        sim.process(writer("w2"))
        sim.run()
        assert ("w1-out", 3.0) in log
        assert ("w2-in", 3.0) in log

    def test_writer_preference_blocks_new_readers(self):
        sim = Simulator()
        lock = RWLock(sim)
        log = []

        def reader(tag, start, hold):
            yield sim.timeout(start)
            yield from _locked(lock, False, _body(sim, log, tag, hold))

        def writer(start):
            yield sim.timeout(start)
            yield from _locked(lock, True, _body(sim, log, "w", 2.0))

        sim.process(reader("r1", 0.0, 5.0))
        sim.process(writer(1.0))       # queued behind r1
        sim.process(reader("r2", 2.0, 1.0))  # must wait for the writer
        sim.run()
        # writer enters when r1 leaves; r2 only after the writer
        assert log.index(("w-in", 5.0)) < log.index(("r2-in", 7.0))

    def test_release_without_acquire_raises(self):
        sim = Simulator()
        lock = RWLock(sim)
        with pytest.raises(RuntimeError):
            lock.release_read()
        with pytest.raises(RuntimeError):
            lock.release_write()

    def test_held_reporting(self):
        sim = Simulator()
        lock = RWLock(sim)
        states = []

        def reader():
            yield lock.acquire_read()
            states.append(lock.held)
            lock.release_read()
            states.append(lock.held)

        sim.process(reader())
        sim.run()
        assert states == ["read(1)", "free"]

    def test_acquisition_counters(self):
        sim = Simulator()
        lock = RWLock(sim)

        def work():
            yield lock.acquire_read()
            lock.release_read()
            yield lock.acquire_write()
            lock.release_write()

        sim.process(work())
        sim.run()
        assert lock.read_acquisitions == 1
        assert lock.write_acquisitions == 1


class TestTreeLockManager:
    def test_locks_created_lazily(self):
        sim = Simulator()
        mgr = TreeLockManager(sim)
        assert mgr.lock_count == 0
        lock = mgr.lock_for(7)
        assert mgr.lock_count == 1
        assert mgr.lock_for(7) is lock

    # The lock phase of an op plan: chunk locks in order, then the core.

    @staticmethod
    def _service(sim):
        return SimpleNamespace(sim=sim, locks=TreeLockManager(sim),
                               host=SimpleNamespace(cpu=CorePool(sim, 8)),
                               write_tracker=WriteTracker(sim))

    @staticmethod
    def _run(service, log, tag, plan, start=0.0):
        sim = service.sim

        def go(_event):
            log.append((f"{tag}-in", sim.now))
            run_plan(service, plan,
                     lambda: log.append((f"{tag}-out", sim.now)))

        sim.timeout(start).callbacks.append(go)

    @staticmethod
    def _write(chunks, hold):
        return OpPlan(True, hold - 1.0, chunks, write=True, window=1.0)

    def test_read_guard_allows_concurrent_searches(self):
        sim = Simulator()
        service = self._service(sim)
        log = []
        for tag in ("s1", "s2"):
            self._run(service, log, tag, OpPlan(None, 4.0, [1, 2, 3]))
        sim.run()
        assert ("s1-out", 4.0) in log
        assert ("s2-out", 4.0) in log

    def test_write_guard_blocks_overlapping_search(self):
        sim = Simulator()
        service = self._service(sim)
        log = []
        self._run(service, log, "w", self._write([2], 5.0))
        self._run(service, log, "s", OpPlan(None, 1.0, [1, 2]), start=1.0)
        sim.run()
        assert log.index(("w-out", 5.0)) < log.index(("s-out", 6.0))

    def test_disjoint_chunks_do_not_block(self):
        sim = Simulator()
        service = self._service(sim)
        log = []
        self._run(service, log, "w1", self._write([1, 2], 5.0))
        self._run(service, log, "w2", self._write([3, 4], 5.0))
        sim.run()
        assert ("w1-out", 5.0) in log
        assert ("w2-out", 5.0) in log

    def test_sorted_acquisition_avoids_deadlock(self):
        sim = Simulator()
        service = self._service(sim)
        log = []
        # Opposite declaration orders; sorted acquisition must not deadlock.
        for i in range(20):
            self._run(service, log, f"a{i}", self._write([1, 2, 3], 1.1))
            self._run(service, log, f"b{i}", self._write([3, 2, 1], 1.1))
        sim.run()
        assert sum(1 for tag, _t in log if tag.endswith("-out")) == 40
