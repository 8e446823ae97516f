"""Discrete-event simulation kernel.

This is the foundation of the whole reproduction: every host, NIC, link,
server thread and client in the Catfish system is a :class:`Process`
(a generator-based coroutine) scheduled by a :class:`Simulator`.

The design follows the classic event-loop DES style (compare simpy, which is
not available offline): a process yields *events* and is resumed when the
event triggers, receiving the event's value.  Simulated time only advances
between events; callbacks run at a single instant.

Because every simulated RDMA op costs a handful of events, this module is
the hottest code in the repository and is written accordingly: all event
classes use ``__slots__``, the run loops are inlined (no per-event method
dispatch), and :class:`Timeout` objects for the pervasive fixed-delay case
are pooled.

Hot paths spend fewer events without moving any timestamp through
:meth:`Simulator.wake_at` (one queue entry at an absolute instant, for a
run of fixed delays the caller sums in the stepwise order),
:meth:`Simulator.start` (a process whose first step runs inside the call,
with no ``Initialize`` entry) and plain callbacks on those events in place
of a process.  :meth:`Simulator.wake_twin` and :meth:`Simulator.retime`
put a step whose need is decided late where the stepwise chain would have
queued it among same-instant events.  :meth:`Simulator.hop` runs a
same-instant wake-up inline when it would be the very next entry anyway,
and :meth:`Simulator.fire` continues a waiter the stepwise model resumed
in the same step.  See ``docs/performance.md`` for the numbers and for
the rules that keep such fusions exact.

Example
-------
>>> sim = Simulator()
>>> def hello(sim):
...     yield sim.timeout(5.0)
...     return sim.now
>>> proc = sim.process(hello(sim))
>>> sim.run()
>>> proc.value
5.0
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, List, Optional

#: Sentinel priority: events scheduled with URGENT run before NORMAL ones
#: that were scheduled for the same simulated instant.
URGENT = 0
NORMAL = 1

#: Heap entries are ``(time, key, event)`` where ``key`` packs priority and
#: schedule sequence into one int: ``(priority << 62) | (seq << 1)``.
#: Comparing a single int resolves the frequent same-instant ties in one
#: step instead of two tuple elements, and keys are unique so the event
#: itself is never compared.  The odd keys are left free for
#: :meth:`Simulator.wake_twin`.
_PRIO_SHIFT = 62
_NORMAL_KEY = NORMAL << _PRIO_SHIFT

_heappush = heapq.heappush

#: Upper bound on the simulator's :class:`Timeout` free list.  A run's
#: working set of concurrently pending timeouts rarely exceeds the number
#: of live processes; the cap just bounds worst-case memory.
_TIMEOUT_POOL_MAX = 4096


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


class EventAlreadyTriggered(SimulationError):
    """Raised when succeeding/failing an event that already triggered."""


class Event:
    """An occurrence at a point in simulated time.

    An event starts *pending*, is *triggered* by :meth:`succeed` or
    :meth:`fail` (which schedules it on the simulator queue), and is
    *processed* once its callbacks have run.  Processes wait on events by
    yielding them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        #: True once a failure has been consumed by some waiter; lets the
        #: kernel detect unhandled failures.
        self.defused = False

    @property
    def triggered(self) -> bool:
        """Whether the event has a value and is (or will be) processed."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have already run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """Whether the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or failure exception) once triggered."""
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._ok is not None:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        _heappush(sim._queue, (sim.now, _NORMAL_KEY + (seq << 1), self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if self._ok is not None:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        _heappush(sim._queue, (sim.now, _NORMAL_KEY + (seq << 1), self))
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed."""
        if self.callbacks is None:
            raise SimulationError("cannot add a callback to a processed event")
        self.callbacks.append(callback)

    def __repr__(self) -> str:
        state = (
            "pending" if self._ok is None
            else "ok" if self._ok
            else "failed"
        )
        return f"<{type(self).__name__} {state} at t={self.sim.now:.6g}>"


class Timeout(Event):
    """An event that triggers at a fixed instant, ``delay`` after creation.

    Created only through :meth:`Simulator.timeout` and
    :meth:`Simulator.wake_at`, which schedule it and recycle processed
    instances through a per-simulator free list (exact-type check;
    subclasses are never pooled).  A recycled instance is fully
    re-initialized on reuse, so every call observably returns a fresh
    event.  The one caveat: a Timeout must not be *inspected*
    (``.value``) after the instant it fired — composites capture values at
    callback time for exactly this reason.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        super().__init__(sim)
        self.delay = delay
        self._ok = True
        self._value = value


class _Started:
    """What a process started by :meth:`Simulator.start` is resumed with
    (in place of its ``Initialize`` event): a succeeded, valueless event."""

    __slots__ = ()
    _ok = True
    _value = None


_STARTED = _Started()


class Initialize(Event):
    """Internal event that starts a freshly created process."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process"):
        super().__init__(sim)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        sim._seq = seq = sim._seq + 1
        _heappush(sim._queue, (sim.now, seq << 1, self))


class Process(Event):
    """A running coroutine; also an event that triggers when it finishes.

    The coroutine is a generator that yields :class:`Event` instances.  When
    a yielded event triggers, the process resumes with the event's value (or
    the event's exception thrown in, if it failed).  The process event itself
    succeeds with the generator's return value, or fails with its uncaught
    exception.
    """

    __slots__ = ("name", "_generator")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = "",
                 start_now: bool = False):
        super().__init__(sim)
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        if start_now:
            self._resume(_STARTED)
        else:
            Initialize(sim, self)

    @property
    def is_alive(self) -> bool:
        """True while the coroutine has not finished."""
        return self._ok is None

    def _resume(self, event: Event) -> None:
        sim = self.sim
        generator = self._generator
        while True:
            if event._ok:
                try:
                    target = generator.send(event._value)
                except StopIteration as exc:
                    self._finish(True, exc.value)
                    break
                except BaseException as exc:  # noqa: BLE001 - propagate via event
                    self._finish(False, exc)
                    break
            else:
                event.defused = True
                try:
                    target = generator.throw(event._value)
                except StopIteration as exc:
                    self._finish(True, exc.value)
                    break
                except BaseException as exc:  # noqa: BLE001
                    self._finish(False, exc)
                    break

            try:
                # Duck-typed: anything with a callbacks list is an event.
                # (Avoids an isinstance per resume on the hottest path.)
                target_callbacks = target.callbacks
            except AttributeError:
                exc = SimulationError(
                    f"process {self.name!r} yielded {target!r}, not an Event"
                )
                event = Event(sim)
                event._ok = False
                event._value = exc
                event.defused = True
                continue
            if target_callbacks is None:
                # Already-processed events resume the process immediately.
                event = target
                continue
            target_callbacks.append(self._resume)
            break

    def _finish(self, ok: bool, value: Any) -> None:
        self._ok = ok
        self._value = value
        if not self.callbacks:
            if not ok:
                # Nobody is waiting on this process: the failure must
                # surface.
                self.sim._crash(value)
                return
            # Nobody is waiting: mark the event processed right away
            # instead of scheduling a queue entry that would run zero
            # callbacks.  A process that yields this event later resumes
            # through the already-processed path, and removing the no-op
            # entry only shifts later sequence numbers uniformly, so
            # same-instant tie-breaking among the remaining events is
            # unchanged (same argument as ``Store.put_discard``).
            self.callbacks = None
            return
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        _heappush(sim._queue, (sim.now, _NORMAL_KEY + (seq << 1), self))


class Simulator:
    """The event loop: a priority queue of ``(time, key, event)`` entries
    (``key`` packs priority and schedule sequence, see ``_PRIO_SHIFT``)."""

    def __init__(self, start_time: float = 0.0):
        self.now: float = start_time
        self._queue: List = []
        self._seq = 0
        self._timeout_pool: List[Timeout] = []
        self._pending_crash: Optional[BaseException] = None
        #: True while the code running is the last callback of the entry
        #: the run loop is processing, outside any :meth:`start` first
        #: step: what :meth:`hop` needs besides an empty instant.
        self._tail = False
        #: The event :meth:`run_until_triggered` stops at, while it runs.
        self._until: Optional[Event] = None

    # -- scheduling ------------------------------------------------------

    def _crash(self, exc: BaseException) -> None:
        """Record an unhandled process failure; re-raised by the run loop."""
        if self._pending_crash is None:
            self._pending_crash = exc

    # -- event factories -------------------------------------------------

    def event(self) -> Event:
        """Create a new pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers after ``delay`` time units.

        The same event as ``wake_at(now + delay)``, with the body inlined
        (this is the hottest factory in the repository).
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        pool = self._timeout_pool
        if pool:
            timeout = pool.pop()
            timeout._ok = True
            timeout._value = value
            timeout.defused = False
            timeout.delay = delay
        else:
            timeout = Timeout(self, delay, value)
        self._seq = seq = self._seq + 1
        _heappush(self._queue,
                  (self.now + delay, _NORMAL_KEY + (seq << 1), timeout))
        return timeout

    def wake_at(self, time: float, value: Any = None) -> Timeout:
        """Create an event that triggers at the absolute instant ``time``.

        This is how a run of fixed delays costs one queue entry instead of
        one per delay: ``wake_at((now + a) + b)`` fires at exactly the
        float that ``timeout(a)`` followed by ``timeout(b)`` reaches, as
        long as the caller adds the delays in the stepwise order (never
        ``now + (a + b)``).  Wake-ups for one instant fire in the order
        they were created.  Reuses a pooled instance when one is
        available (every field is re-initialized, so the returned event
        is indistinguishable from a fresh one).
        """
        now = self.now
        if time < now:
            raise ValueError(f"wake-up at {time} is in the past (now={now})")
        pool = self._timeout_pool
        if pool:
            timeout = pool.pop()
            # The pooled instance kept its (cleared) callbacks list — see
            # the recycle sites in the run loops — so no list is allocated.
            timeout._ok = True
            timeout._value = value
            timeout.defused = False
            timeout.delay = time - now
        else:
            timeout = Timeout(self, time - now, value)
        self._seq = seq = self._seq + 1
        _heappush(self._queue, (time, _NORMAL_KEY + (seq << 1), timeout))
        return timeout

    def wake_twin(self, of: Event, time: float) -> Timeout:
        """A wake-up at ``time`` ordered as if scheduled together with the
        pending ``of``: among the events of its instant it fires right
        after where ``of`` would, ahead of everything scheduled after
        ``of``.

        This keeps a deferred step in its place: a step that may or may
        not be needed at ``time`` (decided at ``of``) holds the position
        the stepwise chain would have given it, and simply does nothing
        if it turns out not to be needed.  At most one twin per event.
        O(queue length), like :meth:`retime`: for rare paths.
        """
        if time < self.now:
            raise ValueError(f"wake-up at {time} is in the past "
                             f"(now={self.now})")
        _when, key = self._entry(of)[1]
        twin = Timeout(self, time - self.now)
        self._seq += 1
        _heappush(self._queue, (time, key + 1, twin))
        return twin

    def retime(self, event: Event, time: float) -> None:
        """Move the scheduled ``event`` to the earlier instant ``time``.

        The event keeps its schedule sequence, so among the events of its
        new instant it fires exactly where it would have had it been
        scheduled for ``time`` when it was created.  O(queue length): a
        correction for rare paths, not a hot-path tool.
        """
        index, (when, key) = self._entry(event)
        if not self.now <= time <= when:
            raise ValueError(
                f"cannot move a wake-up at {when} to {time} (now={self.now})"
            )
        self._queue[index] = (time, key, event)
        heapq.heapify(self._queue)

    def _entry(self, event: Event):
        """``(index, (time, key))`` of ``event``'s queue entry."""
        for index, (when, key, scheduled) in enumerate(self._queue):
            if scheduled is event:
                return index, (when, key)
        raise SimulationError(f"{event!r} is not scheduled")

    # -- same-instant hops ---------------------------------------------------

    def _hop_now(self) -> bool:
        """The rule for :meth:`hop`: may a hop queued now run inline?

        Yes when no other entry is queued for this instant and nothing
        else of the current step is left to run: the code is the last
        callback of the entry being processed (not one with callbacks
        still to come), not inside a :meth:`start` first step (its caller
        goes on), not outside the run loop, and
        :meth:`run_until_triggered` has not seen its event yet (it would
        stop before the hop's entry).  That the hop is the last thing its
        own caller does is the caller's part.
        """
        queue = self._queue
        return (self._tail and (not queue or queue[0][0] > self.now)
                and (self._until is None or self._until._ok is None))

    def hop(self, event: Event, value: Any = None) -> None:
        """Succeed ``event``, a same-instant hop whose only purpose is to
        wake its waiters, as the last thing the current step does.

        When :meth:`_hop_now` holds, the queue would process the event's
        entry next, so its callbacks run right here instead; a waiter
        that yields it afterwards finds it processed.  Skipping the entry
        shifts every later schedule sequence by one, uniformly, so no
        tie between other entries changes.  Otherwise the event is queued
        exactly as :meth:`Event.succeed` queues it.
        """
        if event._ok is not None:
            raise EventAlreadyTriggered(f"{event!r} already triggered")
        if self._hop_now():
            event._ok = True
            event._value = value
            self._run_callbacks(event)
        else:
            event.succeed(value)

    def hop_call(self, callback: Callable[[Optional[Event]], None]) -> None:
        """:meth:`hop` for a bare callback: ``callback(None)`` now, or
        ``callback(wake)`` from a wake-up queued at this instant."""
        if self._hop_now():
            callback(None)
        else:
            self.wake_at(self.now).callbacks.append(callback)

    def fire(self, event: Event, value: Any = None) -> None:
        """Trigger ``event`` and run its callbacks now, inside this step.

        This is how callback code hands back to a generator that waits on
        it where the stepwise model had the generator run that code
        itself (``yield from``): the waiter goes on in the same step, as
        it did.  Not a hop: no entry is skipped, none was ever queued.
        """
        if event._ok is not None:
            raise EventAlreadyTriggered(f"{event!r} already triggered")
        event._ok = True
        event._value = value
        self._run_callbacks(event)

    def _run_callbacks(self, event: Event) -> None:
        callbacks = event.callbacks
        event.callbacks = None
        if len(callbacks) == 1:
            callbacks[0](event)
        elif callbacks:
            self._run_shared(event, callbacks)

    def _run_shared(self, event: Event, callbacks: List) -> None:
        """Run several callbacks of one event; only the last may hop."""
        tail = self._tail
        self._tail = False
        for callback in callbacks[:-1]:
            callback(event)
        self._tail = tail
        callbacks[-1](event)

    def urgent(self, callback: Callable[[Event], None]) -> Event:
        """Queue ``callback`` at this instant ahead of every normal-priority
        entry: the slot a process start takes, for a callback object
        that stands in for a process."""
        event = Event(self)
        event._ok = True
        event.callbacks.append(callback)
        self._seq = seq = self._seq + 1
        _heappush(self._queue, (self.now, seq << 1, event))
        return event

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start running ``generator`` as a simulation process.

        Its first step runs from an ``Initialize`` queue entry at the
        current instant, after the caller's step has finished.
        """
        return Process(self, generator, name=name)

    def start(self, generator: Generator, name: str = "") -> Process:
        """Start ``generator`` as a process whose first step runs now.

        The first step (up to its first ``yield``) executes inside this
        call, before it returns, and no ``Initialize`` entry is queued.
        Use it only for processes whose first step touches nothing the
        rest of the caller's step reads or writes: that is what makes it
        equivalent to :meth:`process`.  An exception raised by the first
        step surfaces from :meth:`run` (nobody can be waiting on the
        process yet).  The first step may not :meth:`hop`: its caller has
        not finished.
        """
        tail, self._tail = self._tail, False
        process = Process(self, generator, name=name, start_now=True)
        self._tail = tail
        return process

    # -- execution -------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or simulated time reaches ``until``.

        An event scheduled *exactly* at ``until`` is still processed (the
        clock stops strictly after ``until`` is exceeded).
        """
        if until is not None and until < self.now:
            raise ValueError(f"until={until} is in the past (now={self.now})")
        if self._pending_crash is not None:
            # A process started (by start()) outside the loop failed.
            exc, self._pending_crash = self._pending_crash, None
            raise exc
        # Hot loop: the dispatch body is inlined (one method call per
        # event otherwise dominates the kernel's own work).
        queue = self._queue
        pool = self._timeout_pool
        heappop = heapq.heappop
        tail, self._tail = self._tail, True
        try:
            while queue:
                if until is not None and queue[0][0] > until:
                    self.now = until
                    return
                time, _key, event = heappop(queue)
                self.now = time
                callbacks = event.callbacks
                event.callbacks = None
                if len(callbacks) == 1:
                    callbacks[0](event)
                elif callbacks:
                    self._run_shared(event, callbacks)
                if event._ok is False:
                    if not event.defused:
                        self._crash(event._value)
                elif (type(event) is Timeout
                      and len(pool) < _TIMEOUT_POOL_MAX):
                    callbacks.clear()
                    event.callbacks = callbacks
                    pool.append(event)
                if self._pending_crash is not None:
                    exc, self._pending_crash = self._pending_crash, None
                    raise exc
        finally:
            self._tail = tail
        if until is not None:
            self.now = until

    def run_until_triggered(self, event: Event, limit: float = float("inf")) -> Any:
        """Run until ``event`` triggers; returns its value.

        Raises the event's exception if it failed, or
        :class:`SimulationError` if the queue drains (or ``limit`` simulated
        time is reached) before the event triggers.
        """
        queue = self._queue
        pool = self._timeout_pool
        heappop = heapq.heappop
        tail, self._tail = self._tail, True
        until, self._until = self._until, event
        try:
            while event._ok is None:
                if not queue:
                    raise SimulationError(
                        "queue drained before event triggered")
                if queue[0][0] > limit:
                    raise SimulationError(
                        f"event not triggered by t={limit}")
                # The dispatch body of run(), inlined again.
                time, _key, current = heappop(queue)
                self.now = time
                callbacks = current.callbacks
                current.callbacks = None
                if len(callbacks) == 1:
                    callbacks[0](current)
                elif callbacks:
                    self._run_shared(current, callbacks)
                if current._ok is False:
                    if not current.defused:
                        self._crash(current._value)
                elif (type(current) is Timeout
                      and len(pool) < _TIMEOUT_POOL_MAX):
                    callbacks.clear()
                    current.callbacks = callbacks
                    pool.append(current)
                if self._pending_crash is not None:
                    exc, self._pending_crash = self._pending_crash, None
                    raise exc
        finally:
            self._tail = tail
            self._until = until
        if not event._ok:
            event.defused = True
            raise event._value
        return event._value


def all_of(sim: Simulator, events: Iterable[Event]) -> Event:
    """An event that succeeds when every event in ``events`` succeeds.

    Its value is the list of the constituent events' values, in input order.
    If any constituent fails, the composite fails with that exception (once).

    Values are captured at each constituent's trigger instant (not when the
    composite completes), so pooled :class:`Timeout` constituents report
    the value they actually fired with.
    """
    events = list(events)
    composite = sim.event()
    if not events:
        composite.succeed([])
        return composite
    remaining = [len(events)]
    values: List[Any] = [None] * len(events)

    def _make(index: int) -> Callable[[Event], None]:
        def _check(_event: Event) -> None:
            if composite._ok is not None:
                if _event._ok is False:
                    _event.defused = True
                return
            if _event._ok is False:
                _event.defused = True
                composite.fail(_event._value)
                return
            values[index] = _event._value
            remaining[0] -= 1
            if remaining[0] == 0:
                composite.succeed(values)
        return _check

    for index, event in enumerate(events):
        callback = _make(index)
        if event.callbacks is None:
            # Feed processed events through the same path immediately.
            callback(event)
        else:
            event.callbacks.append(callback)
    return composite


def any_of(sim: Simulator, events: Iterable[Event]) -> Event:
    """An event that succeeds when the first of ``events`` succeeds.

    Its value is ``(index, value)`` of the first event to trigger.  Fails if
    the first event to trigger failed.  Once the composite has triggered,
    every remaining constituent — pending *or* already processed — that
    turns out to have failed is defused, so a lost race cannot crash the
    run.
    """
    events = list(events)
    if not events:
        raise ValueError("any_of() requires at least one event")
    composite = sim.event()

    def _make(index: int) -> Callable[[Event], None]:
        def _check(_event: Event) -> None:
            if composite._ok is not None:
                if _event._ok is False:
                    _event.defused = True
                return
            if _event._ok:
                composite.succeed((index, _event._value))
            else:
                _event.defused = True
                composite.fail(_event._value)
        return _check

    for index, event in enumerate(events):
        callback = _make(index)
        if event.callbacks is None:
            # Already processed: feed it through the same path.  This also
            # covers processed *failures* seen after the composite
            # triggered — they must be defused, not skipped.
            callback(event)
        else:
            event.callbacks.append(callback)
    return composite
