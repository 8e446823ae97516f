"""One server operation as a plan, and the one chain that runs it.

Every index service (the R-tree server, the B+tree, the cuckoo table)
turns a wire request into an :class:`OpPlan` at the instant a server
thread dispatches it.  The index operation itself runs then (a mutation
is applied before any CPU is charged, which is what opens the torn-read
window), and the plan says what the thread still has to spend: the chunk
locks and their mode, the core time, for a mutation the trailing store
burst that tears concurrent one-sided reads, the served-work counter to
bump, and the response segments.  A plan may take no locks (a failed
update) or no CPU at all (a put into a full cuckoo table).

:func:`run_plan` is the only place the sequence locks → core → work →
window → release exists.  It runs as kernel callbacks and queues exactly
the entries of the stepwise model — a process that takes each lock,
claims a core, waits out each charge — in the same order: an
uncontended lock grant is a same-instant hop
(:meth:`~repro.sim.kernel.Simulator.hop`), a contended one and a core
handed over are entries of their own, each CPU charge is one wake-up.
The fast-messaging and TCP workers run it, and :func:`execute_plan`
wraps it for callers that are processes.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional, Sequence


class OpPlan:
    """What one dispatched request still costs the server thread."""

    __slots__ = ("result", "cost", "chunks", "write", "window",
                 "window_nodes", "counter", "queries", "segments")

    def __init__(self, result: Any, cost: Optional[float],
                 chunks: Sequence[int] = (), write: bool = False,
                 window: Optional[float] = None, window_nodes=(),
                 counter: Optional[str] = None, queries: Sequence = ()):
        #: What the operation returns (matches, a count, an ack).
        self.result = result
        #: Core seconds before the write window; None charges nothing.
        self.cost = cost
        #: Chunk ids to lock (taken sorted, once each) and the lock mode.
        self.chunks = chunks
        self.write = write
        #: Core seconds of the store burst, and the nodes it marks as
        #: being written (mutations only).
        self.window = window
        self.window_nodes = window_nodes
        #: The service's served-work counter bumped once the locks are
        #: released, once per read rect (once for a plan with none), and
        #: the read rects the R-tree keeps as load sample.
        self.counter = counter
        self.queries = queries
        #: The response, as ring-buffer segments.
        self.segments: list = []


def mutation_plan(result: Any, cost: float, nodes, chunks: Sequence[int],
                  costs, counter: str) -> OpPlan:
    """A write plan: ``cost`` core seconds under write locks on
    ``chunks``, of which only the trailing store burst
    (``costs.write_window``) marks ``nodes`` as being written."""
    window = min(cost, costs.write_window(len(nodes)))
    return OpPlan(result, cost - window, chunks, write=True, window=window,
                  window_nodes=nodes, counter=counter)


def run_plan(service, plan: OpPlan, then: Callable[[], None]) -> None:
    """Run ``plan`` on ``service``'s thread; ``then()`` once the locks are
    released and the counter bumped, in that same step."""
    _PlanRun(service, plan, then).lock(None)


def execute_plan(service, plan: OpPlan) -> Generator:
    """:func:`run_plan` for a process (``yield from``); returns the
    plan's result.  The process goes on in the step the plan ends, as it
    did when it ran the locks and charges itself."""
    sim = service.sim
    done = sim.event()
    run_plan(service, plan, lambda: sim.fire(done))
    yield done
    return plan.result


class _PlanRun:
    """One plan in flight: the lock, core and window steps as callbacks."""

    __slots__ = ("service", "plan", "then", "locks", "held")

    def __init__(self, service, plan: OpPlan, then: Callable[[], None]):
        self.service = service
        self.plan = plan
        self.then = then
        lock_for = service.locks.lock_for
        self.locks = [lock_for(cid) for cid in sorted(set(plan.chunks))]
        self.held = 0

    def lock(self, _event) -> None:
        """Take the locks in chunk order (no deadlock), one at a time."""
        locks = self.locks
        write = self.plan.write
        while self.held < len(locks):
            lock = locks[self.held]
            self.held += 1
            grant = lock.acquire_write() if write else lock.acquire_read()
            if grant.callbacks is not None:
                grant.callbacks.append(self.lock)
                return
        cost = self.plan.cost
        if cost is None:
            self._release()
        else:
            self.service.host.cpu.charge(cost, self._worked)

    def _worked(self) -> None:
        plan = self.plan
        if plan.window is None:
            self._release()
            return
        # Only the trailing store burst opens the torn-read window: the
        # traversal before it is reads and cannot tear anything.
        self.service.write_tracker.begin(plan.window_nodes)
        self.service.host.cpu.charge(plan.window, self._written)

    def _written(self) -> None:
        self.service.write_tracker.end(self.plan.window_nodes)
        self._release()

    def _release(self) -> None:
        plan = self.plan
        service = self.service
        for lock in reversed(self.locks):
            if plan.write:
                lock.release_write()
            else:
                lock.release_read()
        if plan.counter is not None:
            setattr(service, plan.counter,
                    getattr(service, plan.counter)
                    + max(1, len(plan.queries)))
        if plan.queries:
            service.recent_queries.extend(plan.queries)
        self.then()
