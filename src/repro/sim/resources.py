"""Shared-resource primitives built on the DES kernel.

* :class:`Store` — an unbounded FIFO of items with blocking ``get``
  (the RDMA completion channel, the two TCP socket inboxes, the ring
  buffer's inbox and the mux queue).
* :class:`Mailbox` — a store with one reader whose deliveries wake it by
  same-instant hops (a fast-messaging client's response segments, the
  reads of one offloaded traversal).
* :class:`Resource` — ``capacity`` identical servers with a FIFO wait
  queue, and :class:`Container` — a continuous quantity with blocking
  ``get``/``put``.  The model itself no longer uses either (CPU cores and
  ring-buffer space are counters with FIFOs of their own, see
  :class:`~repro.hw.cpu.CorePool` and
  :class:`~repro.msg.ringbuffer.RingBuffer`); they remain general
  primitives, exercised by the scoreboard's resource basket.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from .kernel import Event, Simulator


class Request(Event):
    """A pending claim on a :class:`Resource`; succeeds when granted.

    Usable as a context manager so releases cannot be forgotten::

        with resource.request() as req:
            yield req
            ...
    """

    __slots__ = ("resource", "released")

    def __init__(self, resource: "Resource"):
        super().__init__(resource.sim)
        self.resource = resource
        self.released = False
        resource._on_request(self)

    def release(self) -> None:
        """Return the claimed slot (idempotent)."""
        if not self.released:
            self.released = True
            self.resource._on_release(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()


class Resource:
    """``capacity`` identical slots with FIFO granting."""

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._users: int = 0
        self._waiting: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently claimed."""
        return self._users

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def request(self) -> Request:
        """Claim a slot; the returned event succeeds when granted."""
        return Request(self)

    def _on_request(self, request: Request) -> None:
        if self._users < self.capacity:
            self._users += 1
            # Uncontended grant: trigger *and* mark processed in one step.
            # The requester's ``yield`` then resumes through the kernel's
            # already-processed path instead of paying a queue round-trip
            # for an event with a single, known callback.  Contended
            # grants (below, and in ``_on_release``) still go through the
            # queue, so FIFO fairness and wake-up ordering are untouched.
            request._ok = True
            request.callbacks = None
        else:
            self._waiting.append(request)

    def _on_release(self, request: Request) -> None:
        if request._ok is None:  # not triggered yet
            # Cancelled before being granted: drop from the wait queue.
            try:
                self._waiting.remove(request)
            except ValueError:
                pass
            return
        if self._waiting:
            nxt = self._waiting.popleft()
            nxt.succeed()
        else:
            self._users -= 1


class StoreGet(Event):
    """Pending ``get`` on a :class:`Store`; value is the retrieved item."""

    __slots__ = ()

    def __init__(self, store: "Store"):
        super().__init__(store.sim)
        store._on_get(self)

    def cancel(self) -> None:
        """Withdraw the get if it has not been satisfied yet."""
        if not self.triggered:
            self.defused = True  # nothing will consume a cancelled get


class Store:
    """Unbounded FIFO item store with blocking get."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.items: Deque[Any] = deque()
        self._getters: Deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put_discard(self, item: Any) -> None:
        """Deposit ``item``; the oldest waiting getter gets it (its wake-up
        is a queue entry at this instant).  No acknowledgement event: the
        store is unbounded, so a put never waits."""
        self.items.append(item)
        if self._getters:
            self._match()

    def get(self) -> StoreGet:
        """Remove and return the oldest item; blocks while empty."""
        return StoreGet(self)

    def _on_get(self, get: StoreGet) -> None:
        if self.items and not self._getters:
            # Item already buffered and nobody queued ahead: serve
            # synchronously (``_match`` invariant guarantees the two
            # deques are never both non-empty between operations).
            get._ok = True
            get._value = self.items.popleft()
            get.callbacks = None
            return
        self._getters.append(get)
        self._match()

    def _match(self) -> None:
        while self._getters and self.items:
            getter = self._getters.popleft()
            if getter._ok is not None or getter.defused:
                continue
            getter.succeed(self.items.popleft())


class Mailbox:
    """An unbounded FIFO with one reader, fed by deliveries that are each
    the last thing their step does.

    It is a :class:`Store` with one getter at a time, whose put wakes the
    waiting getter by a same-instant hop (:meth:`Simulator.hop`): inline
    whenever the queue would run the wake-up next, else queued exactly
    where the store would queue it.
    """

    __slots__ = ("sim", "items", "_waiter")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.items: Deque[Any] = deque()
        self._waiter: Optional[Event] = None

    def put(self, item: Any) -> None:
        """Deliver ``item``; the caller does nothing after this."""
        waiter = self._waiter
        if waiter is None:
            self.items.append(item)
        else:
            self._waiter = None
            self.sim.hop(waiter, item)

    def get(self) -> Event:
        """The oldest item: processed at once when one is buffered."""
        event = Event(self.sim)
        if self.items:
            event._ok = True
            event._value = self.items.popleft()
            event.callbacks = None
        else:
            self._waiter = event
        return event

    def withdraw(self, event: Event) -> None:
        """Give up a pending :meth:`get`: the next item is buffered."""
        if self._waiter is event:
            self._waiter = None


class ContainerGet(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float):
        if amount <= 0:
            raise ValueError(f"amount must be > 0, got {amount}")
        super().__init__(container.sim)
        self.amount = amount
        container._on_get(self)

    def cancel(self) -> None:
        """Withdraw the get if it has not been satisfied yet.

        A cancelled get never takes quantity out of the container;
        ``_match`` skips it, so getters queued behind it are not starved
        (mirrors :meth:`StoreGet.cancel`).
        """
        if not self.triggered:
            self.defused = True


class ContainerPut(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float):
        if amount <= 0:
            raise ValueError(f"amount must be > 0, got {amount}")
        super().__init__(container.sim)
        self.amount = amount
        container._on_put(self)


class Container:
    """A continuous quantity (e.g. bytes of free ring-buffer space)."""

    def __init__(
        self,
        sim: Simulator,
        capacity: float = float("inf"),
        init: float = 0.0,
    ):
        if init < 0 or init > capacity:
            raise ValueError(f"init={init} outside [0, {capacity}]")
        self.sim = sim
        self.capacity = capacity
        self.level = init
        self._getters: Deque[ContainerGet] = deque()
        self._putters: Deque[ContainerPut] = deque()

    def get(self, amount: float) -> ContainerGet:
        """Take ``amount`` out; pending until enough is available (FIFO)."""
        return ContainerGet(self, amount)

    def put(self, amount: float) -> ContainerPut:
        """Add ``amount``; pending until it fits under ``capacity``."""
        return ContainerPut(self, amount)

    def _on_get(self, get: ContainerGet) -> None:
        if not self._getters and get.amount <= self.level:
            # Immediately satisfiable with nobody queued ahead: take the
            # quantity and mark the event processed in one step (see
            # Resource._on_request).  The freed headroom may unblock a
            # queued putter, exactly as in the queued path.
            self.level -= get.amount
            get._ok = True
            get.callbacks = None
            if self._putters:
                self._match()
            return
        self._getters.append(get)
        self._match()

    def _on_put(self, put: ContainerPut) -> None:
        if not self._putters and self.level + put.amount <= self.capacity:
            self.level += put.amount
            put._ok = True
            put.callbacks = None
            if self._getters:
                self._match()
            return
        self._putters.append(put)
        self._match()

    def _match(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._putters and (
                self.level + self._putters[0].amount <= self.capacity
            ):
                put = self._putters.popleft()
                self.level += put.amount
                put.succeed()
                progressed = True
            while self._getters and self._getters[0].defused:
                # Cancelled get (bounded-wait reservation that timed out):
                # drop it so it neither takes quantity nor blocks the FIFO.
                self._getters.popleft()
                progressed = True
            if self._getters and self._getters[0].amount <= self.level:
                get = self._getters.popleft()
                self.level -= get.amount
                get.succeed()
                progressed = True
