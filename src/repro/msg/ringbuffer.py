"""The RDMA-Write ring buffer (paper Fig 5).

One ring buffer per direction per connection, pre-allocated and registered
once.  The *sender* RDMA-Writes messages at the free (tail) pointer; the
*receiver* consumes at the processed (head) pointer and writes the updated
head back so the sender knows how much space is free.

In the simulation the framing is byte-accurate — a message occupies
``MSG_HEADER_SIZE + payload`` bytes of ring capacity, senders block when
the ring is full (backpressure), FIFO order is preserved — while message
*content* travels as Python objects.  The free space is a counter plus a
FIFO of waiting reservations.

The ring buffer is also an RDMA-Write target (it implements
``rdma_write``), so fast-messaging clients genuinely deliver requests
through :meth:`QpEndpoint.post_write` on the verbs layer.  A receiver
either consumes from it (a server thread) or has every message handed to
it as it lands (:meth:`RingBuffer.deliver_to`, a client).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Generator, Optional, Tuple

from ..sim.kernel import Event, Simulator, any_of
from ..sim.resources import Store
from .codec import MSG_HEADER_SIZE, message_size, query_count

#: The paper allocates a 256 KB ring buffer per connection pair (§V-B).
DEFAULT_RING_CAPACITY = 256 * 1024


class RingBufferFullError(Exception):
    """Raised when a non-blocking reservation does not fit."""


class RingBuffer:
    """One direction of a connection's message ring."""

    def __init__(
        self,
        sim: Simulator,
        capacity: int = DEFAULT_RING_CAPACITY,
        name: str = "ring",
    ):
        if capacity <= MSG_HEADER_SIZE:
            raise ValueError(f"capacity {capacity} too small")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        #: Free bytes between tail and head, as the *sender* sees them,
        #: and the reservations waiting for room, oldest first: (bytes,
        #: grant event), the event None for a reservation nobody waits
        #: on (see try_reserve).
        self._free = capacity
        self._claims: Deque[Tuple[int, Optional[Event]]] = deque()
        #: Delivered messages awaiting a consuming receiver
        #: (message, footprint).
        self._inbox: Store = Store(sim)
        #: The receiver every landing message is handed to, if any, and
        #: the messages on their way to it (see deliver_to).
        self._reader: Optional[Callable[[Any], None]] = None
        self._landed: Deque[Tuple[Any, int]] = deque()
        self._read: Deque[Any] = deque()
        #: Reservations made but not yet deposited (sanity accounting).
        self._reserved_bytes = 0
        self.messages_sent = 0
        self.messages_received = 0
        self.bytes_sent = 0
        self.high_watermark = 0

    # -- sender side --------------------------------------------------------

    def _footprint(self, message) -> int:
        footprint = message_size(message)
        if footprint > self.capacity:
            raise ValueError(
                f"message of {footprint} B cannot fit a {self.capacity} B ring"
            )
        return footprint

    def _claim(self, footprint: int, wait: bool = True) -> Optional[Event]:
        """Take ``footprint`` bytes: None when granted on the spot, else the
        grant event, which succeeds once every older claim is served and
        the bytes are free (FIFO)."""
        if not self._claims and footprint <= self._free:
            self._free -= footprint
            return None
        grant = Event(self.sim) if wait else None
        self._claims.append((footprint, grant))
        self._grant()
        return grant

    def _grant(self) -> None:
        claims = self._claims
        while claims:
            footprint, grant = claims[0]
            if grant is not None and grant.defused:
                # Withdrawn (a bounded wait that timed out): it neither
                # takes room nor blocks the claims behind it.
                claims.popleft()
                continue
            if footprint > self._free:
                return
            claims.popleft()
            self._free -= footprint
            if grant is not None:
                grant.succeed()

    def _claimed(self, footprint: int) -> None:
        self._reserved_bytes += footprint
        used = self.capacity - self._free
        if used > self.high_watermark:
            self.high_watermark = used

    def _give_back(self, footprint: int) -> None:
        """The receiver advanced the processed pointer past a message."""
        self._free += footprint
        if self._claims:
            self._grant()

    def reserve(self, message) -> Generator:
        """Claim ring space for ``message``; blocks while the ring is full.

        This models the sender checking the processed pointer before
        writing at the free pointer.
        """
        footprint = self._footprint(message)
        grant = self._claim(footprint)
        if grant is not None:
            yield grant
        self._claimed(footprint)

    def reserve_then(self, message, then: Callable[[], None]) -> None:
        """:meth:`reserve` for a callback chain: ``then()`` runs once the
        space is granted — at once, or at the grant's entry."""
        footprint = self._footprint(message)
        grant = self._claim(footprint)
        if grant is None:
            self._claimed(footprint)
            then()
            return

        def granted(_event) -> None:
            self._claimed(footprint)
            then()

        grant.callbacks.append(granted)

    def reserve_within(self, message, timeout_s: float) -> Generator:
        """Claim ring space, waiting at most ``timeout_s``.

        Raises :class:`RingBufferFullError` if the space is not granted in
        time — the bounded-wait alternative to :meth:`reserve` used by
        clients with a request deadline.  A timed-out claim is withdrawn,
        so it cannot later swallow freed space or starve reservations
        queued behind it.
        """
        if timeout_s <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout_s}")
        footprint = self._footprint(message)
        grant = self._claim(footprint)
        if grant is not None:
            if grant._ok is not None:
                yield grant
            else:
                yield any_of(self.sim, (grant, self.sim.timeout(timeout_s)))
                if grant._ok is None:
                    grant.defused = True
                    raise RingBufferFullError(
                        f"no room for {footprint} B within "
                        f"{timeout_s * 1e6:.0f} us on {self.name}"
                    )
        self._claimed(footprint)

    def try_reserve(self, message) -> bool:
        """Non-blocking reservation; False when the ring lacks space.

        Used for droppable traffic (heartbeats): under congestion the
        sender skips the message instead of stalling, which is exactly the
        paper's "no heartbeat arrived because the server bandwidth is
        saturated" case.  With reservations already waiting, the bytes
        are claimed behind them.
        """
        footprint = message_size(message)
        if self._free < footprint:
            return False
        self._claim(footprint, wait=False)
        self._claimed(footprint)
        return True

    def deposit(self, message) -> None:
        """The message has landed in ring memory (RDMA Write completed)."""
        footprint = message_size(message)
        if self._reserved_bytes < footprint:
            raise RingBufferFullError(
                f"deposit of {footprint} B without a reservation "
                f"({self._reserved_bytes} B reserved) on {self.name}"
            )
        self._reserved_bytes -= footprint
        self.messages_sent += 1
        self.bytes_sent += footprint
        if self._reader is None:
            self._inbox.put_discard((message, footprint))
            return
        self._landed.append((message, footprint))
        self.sim.hop_call(self._take)

    # -- RDMA target protocol --------------------------------------------------

    def rdma_write(self, address: int, length: int, payload: Any,
                   now: float) -> None:
        """Verbs-layer entry point: the payload is the message object."""
        self.deposit(payload)

    def rdma_read(self, address: int, length: int, now: float) -> Any:
        raise NotImplementedError(
            "ring buffers are written one-sidedly, never read one-sidedly"
        )

    # -- receiver side -------------------------------------------------------

    def deliver_to(self, reader: Callable[[Any], None]) -> None:
        """Hand every message to ``reader`` as it lands.

        The receiver this replaces was a process parked on
        :meth:`consume`: a landing woke it in two same-instant hops — the
        ring's get (the head advances, freeing the space), then the
        process itself — and both are hops here
        (:meth:`~repro.sim.kernel.Simulator.hop_call`), run inline
        whenever the queue would run them next.  A deposit is the last
        thing its RDMA Write's landing step does.
        """
        self._reader = reader

    def _take(self, _event) -> None:
        message, footprint = self._landed.popleft()
        self.messages_received += 1
        self._give_back(footprint)
        self._read.append(message)
        self.sim.hop_call(self._hand)

    def _hand(self, _event) -> None:
        self._reader(self._read.popleft())

    def consume(self) -> Event:
        """Event yielding the oldest message; frees its ring space.

        The space release models the receiver advancing the processed
        pointer and writing it back to the sender.  The caller waits on
        the event at once (its wake-up is a same-instant hop).
        """
        get = self._inbox.get()
        consumed = self.sim.event()

        def _on_message(event) -> None:
            message, footprint = event._value
            self.messages_received += 1
            self._give_back(footprint)
            self.sim.hop(consumed, message)

        if get._ok is not None:
            _on_message(get)
        else:
            get.callbacks.append(_on_message)
        return consumed

    def try_consume(self) -> Tuple[bool, Any]:
        """Non-blocking poll: (True, message) or (False, None)."""
        if not self._inbox.items:
            return False, None
        message, footprint = self._inbox.items.popleft()
        self.messages_received += 1
        self._give_back(footprint)
        return True, message

    # -- introspection -----------------------------------------------------------

    @property
    def pending_messages(self) -> int:
        return len(self._inbox.items)

    @property
    def pending_queries(self) -> int:
        """Queries the pending messages carry (a batched search, Q)."""
        return sum(query_count(message)
                   for message, _footprint in self._inbox.items)

    @property
    def free_bytes(self) -> int:
        return self._free

    @property
    def used_bytes(self) -> int:
        return self.capacity - self.free_bytes
