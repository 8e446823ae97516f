"""The stepwise generator model of the fast-messaging path, kept as the
reference the callback chains are checked against.

A fast-messaging request used to run as processes end to end: a server
thread per connection running ``handle_request`` (lock guards around a
CPU charge, a write window around the store burst) and the response
writes, cores as a ``Resource``, ring space as a ``Container``, a
receiver process per client draining the response ring into a ``Store``,
and every lock grant a queued event.  That model is kept here as it was
but for names; ``tests/test_server_chain.py`` drives it beside the
callback chains and asserts the same results, instants and counters.
Its worker crash interrupts a waiting thread, so the interrupt the
kernel does not need (:class:`InterruptibleProcess`) lives here too.
"""

import heapq
import random
from typing import Any, Generator, Set, Tuple

from repro.btree.offload import KvFmSession
from repro.client.base import RequestIdAllocator
from repro.client.fm_client import FmSession
from repro.msg.codec import (
    Heartbeat,
    ResponseSegment,
    message_size,
    query_count,
)
from repro.msg.ringbuffer import RingBufferFullError
from repro.server.fast_messaging import (
    EVENT,
    POLLING,
    FastMessagingServer,
    FmConnection,
)
from repro.sim import Container, Resource, Store, any_of
from repro.sim.kernel import Event, Initialize, Process, SimulationError
from repro.transport.rdma import CompletionChannel, connect

# -- interruptible processes -------------------------------------------------


class Interrupt(SimulationError):
    """Thrown into a process when another process interrupts it; ``cause``
    carries the value passed to :meth:`InterruptibleProcess.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class InterruptibleProcess(Process):
    """A :class:`Process` another process can throw :class:`Interrupt`
    into: how the stepwise model crashes an idle fast-messaging worker.

    The event the process was waiting on is *abandoned*, not edited: its
    callback list keeps the stale ``_resume`` entry (a tombstone discarded
    in O(1) when the event eventually fires).  The kernel does not note
    which event a process waits on, so this class runs its generator
    through :meth:`_tracked`, which does.
    """

    __slots__ = ("_interrupts", "_awaited")

    def __init__(self, sim, generator: Generator, name: str = ""):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        Event.__init__(self, sim)
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = self._tracked(generator)
        #: Pending interrupt deliveries; with ``_awaited``, every wake-up
        #: this process still expects.  Anything else is a tombstone.
        self._interrupts = []
        #: The event the process waits on: its ``Initialize`` until it
        #: starts, ``None`` once interrupted (until it yields again).
        self._awaited = Initialize(sim, self)

    def _tracked(self, generator: Generator) -> Generator:
        """Run ``generator``, noting each event it yields in ``_awaited``."""
        step, value = generator.send, None
        while True:
            try:
                target = step(value)
            except StopIteration as stop:
                return stop.value
            self._awaited = target
            try:
                step, value = generator.send, (yield target)
            except GeneratorExit:
                generator.close()
                raise
            except BaseException as exc:  # noqa: BLE001
                # Thrown in: forward it, as ``yield from`` would.
                step, value = generator.throw, exc

    @property
    def has_started(self) -> bool:
        """True once the coroutine has executed its first step.

        Interrupting a process that has not yet started throws the
        :class:`Interrupt` at the generator's first instruction, before
        any ``try`` it opens, so a cooperative interrupter checks this
        first.
        """
        return not isinstance(self._awaited, Initialize)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant.

        Interrupting a dead process is an error; interrupting a process
        twice before it handles the first delivers both.
        """
        if self._ok is not None:
            raise SimulationError(f"cannot interrupt dead process {self.name}")
        self._awaited = None
        event = Event(self.sim)
        event._ok = False
        event._value = Interrupt(cause)
        event.defused = True
        event.callbacks.append(self._resume)
        self._interrupts.append(event)
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        heapq.heappush(sim._queue, (sim.now, seq << 1, event))

    def _resume(self, event) -> None:
        if self._ok is not None:
            # Stale wake-up (e.g. the event abandoned on interrupt).
            if event._ok is False:
                event.defused = True
            return
        if event is not self._awaited:
            # A pending interrupt delivery, or a stale wake-up from an
            # event abandoned by interrupt().
            try:
                self._interrupts.remove(event)
            except ValueError:
                if event._ok is False:
                    event.defused = True
                return
        Process._resume(self, event)

# -- locks, cores, write windows --------------------------------------------


def acquire(lock, write: bool):
    """An RWLock grant as it was: a queued event even when uncontended."""
    event = lock.sim.event()
    if write:
        if not lock._writer and lock._readers == 0 and not lock._waiting:
            lock._writer = True
            lock.write_acquisitions += 1
            event.succeed()
        else:
            lock._waiting.append((event, True))
            lock._waiting_writers += 1
    elif not lock._writer and lock._waiting_writers == 0:
        lock._readers += 1
        lock.read_acquisitions += 1
        event.succeed()
    else:
        lock._waiting.append((event, False))
    return event


def guard(manager, chunk_ids, write: bool, body: Generator) -> Generator:
    """``read_guard`` / ``write_guard``: run ``body`` holding the locks on
    all ``chunk_ids`` (sorted to avoid deadlock)."""
    locks = [manager.lock_for(cid) for cid in sorted(set(chunk_ids))]
    for lock in locks:
        yield acquire(lock, write)
    try:
        yield from body
    finally:
        for lock in reversed(locks):
            if write:
                lock.release_write()
            else:
                lock.release_read()


def execute(pool, cost: float) -> Generator:
    """``CorePool.execute`` with the cores a :class:`Resource`."""
    cores = pool.__dict__.setdefault(
        "ref_cores", Resource(pool.sim, capacity=pool.capacity))
    req = cores.request()
    try:
        yield req
        pool.tracker.adjust(+1)
        try:
            yield pool.sim.timeout(cost)
            pool.total_work_seconds += cost
        finally:
            pool.tracker.adjust(-1)
    finally:
        req.release()


def write_window(tracker, nodes, duration_gen) -> Generator:
    """Run ``duration_gen`` while all ``nodes`` are marked as written."""
    nodes = list(nodes)
    for node in nodes:
        node.begin_write()
    tracker.open_windows += 1
    try:
        yield from duration_gen
    finally:
        tracker.open_windows -= 1
        for node in nodes:
            node.end_write()
        tracker.total_writes += 1


def run_plan(service, plan) -> Generator:
    """What ``handle_request`` spent on a server thread, given the op
    plan's numbers: the ``execute_*`` generators of every service."""
    cpu = service.host.cpu
    if plan.cost is not None:
        if plan.write:
            def body():
                yield from execute(cpu, plan.cost)
                yield from write_window(service.write_tracker,
                                        plan.window_nodes,
                                        execute(cpu, plan.window))
            yield from guard(service.locks, plan.chunks, True, body())
        else:
            yield from guard(service.locks, plan.chunks, False,
                             execute(cpu, plan.cost))
    if plan.counter is not None:
        setattr(service, plan.counter,
                getattr(service, plan.counter) + max(1, len(plan.queries)))
    if plan.queries:
        service.recent_queries.extend(plan.queries)
    return plan.segments


# -- the ring: free space a Container, the inbox a Store --------------------


class RingBuffer:
    """One direction of a connection's message ring, as it was."""

    def __init__(self, sim, capacity: int, name: str = "ring"):
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._free = Container(sim, capacity=float(capacity),
                               init=float(capacity))
        self._inbox = Store(sim)
        self._reserved_bytes = 0
        self.messages_sent = 0
        self.messages_received = 0
        self.bytes_sent = 0
        self.high_watermark = 0

    def _accounted(self, footprint: int) -> None:
        self._reserved_bytes += footprint
        used = self.capacity - int(self._free.level)
        if used > self.high_watermark:
            self.high_watermark = used

    def reserve(self, message) -> Generator:
        footprint = message_size(message)
        if footprint > self.capacity:
            raise ValueError(f"message of {footprint} B cannot fit")
        yield self._free.get(float(footprint))
        self._accounted(footprint)

    def reserve_within(self, message, timeout_s: float) -> Generator:
        footprint = message_size(message)
        get = self._free.get(float(footprint))
        if get.triggered:
            yield get
        else:
            yield any_of(self.sim, (get, self.sim.timeout(timeout_s)))
            if not get.triggered:
                get.cancel()
                raise RingBufferFullError(f"no room on {self.name}")
        self._accounted(footprint)

    def try_reserve(self, message) -> bool:
        footprint = message_size(message)
        if self._free.level < footprint:
            return False
        self._free.get(float(footprint))
        self._accounted(footprint)
        return True

    def deposit(self, message) -> None:
        footprint = message_size(message)
        if self._reserved_bytes < footprint:
            raise RingBufferFullError(f"deposit without a reservation on "
                                      f"{self.name}")
        self._reserved_bytes -= footprint
        self.messages_sent += 1
        self.bytes_sent += footprint
        self._inbox.put_discard((message, footprint))

    def rdma_write(self, address: int, length: int, payload: Any,
                   now: float) -> None:
        self.deposit(payload)

    def consume(self):
        get = self._inbox.get()
        consumed = self.sim.event()

        def _on_message(event) -> None:
            message, footprint = event.value
            self.messages_received += 1
            self._free.put(float(footprint))
            consumed.succeed(message)

        if get.triggered:
            _on_message(get)
        else:
            get.add_callback(_on_message)
        return consumed

    def try_consume(self) -> Tuple[bool, Any]:
        if not self._inbox.items:
            return False, None
        message, footprint = self._inbox.items.popleft()
        self.messages_received += 1
        self._free.put(float(footprint))
        return True, message

    @property
    def pending_messages(self) -> int:
        return len(self._inbox.items)

    @property
    def pending_queries(self) -> int:
        return sum(query_count(message)
                   for message, _footprint in self._inbox.items)


# -- the server thread: a process per connection ----------------------------


class StepwiseFastMessagingServer(FastMessagingServer):
    """Fast messaging with the generator worker of each connection."""

    def open_connection(self, client_host) -> FmConnection:
        sim = self.sim
        server_host = self.server.host
        conn_id = len(self.connections)
        conn = FmConnection(conn_id=conn_id, client_host=client_host,
                            use_imm=(self.mode == EVENT))
        conn.request_ring = RingBuffer(sim, self.ring_capacity,
                                       name=f"req-ring-{conn_id}")
        req_region = server_host.memory.register(self.ring_capacity)
        server_host.memory.bind(req_region.rkey, conn.request_ring)
        conn.request_rkey = req_region.rkey
        conn.request_addr = req_region.base
        conn.response_ring = RingBuffer(sim, self.ring_capacity,
                                        name=f"resp-ring-{conn_id}")
        resp_region = client_host.memory.register(self.ring_capacity)
        client_host.memory.bind(resp_region.rkey, conn.response_ring)
        conn.response_rkey = resp_region.rkey
        conn.response_addr = resp_region.base
        mailbox_region = client_host.memory.register(64)
        client_host.memory.bind(mailbox_region.rkey, conn.mailbox)
        conn.client_end, conn.server_end = connect(
            sim, self.network, client_host, server_host,
            name=f"fm-{conn_id}")
        if self.mode == EVENT:
            conn.server_channel = CompletionChannel(sim)
            conn.server_end.channel = conn.server_channel
        self.connections.append(conn)
        if self.mode == POLLING:
            self.server.service_inflation = (
                server_host.scheduler.service_inflation(self.n_connections))
        conn.worker = InterruptibleProcess(sim, self._worker(conn))
        return conn

    def crash_worker(self, conn: FmConnection) -> None:
        if conn.worker_down:
            return
        conn.worker_down = True
        conn.worker_restart = self.sim.event()
        self.workers_crashed += 1
        if (self.mode == EVENT and not conn.worker_busy
                and conn.worker.is_alive and conn.worker.has_started):
            conn.worker.interrupt("worker-crash")

    def _worker(self, conn: FmConnection) -> Generator:
        scheduler = self.server.host.scheduler
        if self.mode == EVENT:
            while True:
                try:
                    if conn.worker_down:
                        yield conn.worker_restart
                    else:
                        yield conn.server_channel.wait()
                        yield self.sim.timeout(
                            scheduler.event_wakeup_delay())
                    while not conn.worker_down:
                        found, request = conn.request_ring.try_consume()
                        if not found:
                            break
                        if self._shed(conn, request):
                            continue
                        conn.worker_busy = True
                        try:
                            yield from self._handle(conn, request)
                        finally:
                            conn.worker_busy = False
                        self.requests_handled += 1
                except Interrupt:
                    continue
        else:
            while True:
                try:
                    if conn.worker_down:
                        yield conn.worker_restart
                        continue
                    request = yield conn.request_ring.consume()
                    yield self.sim.timeout(
                        scheduler.polling_wakeup_delay(self.n_connections))
                    if conn.worker_down:
                        self.requests_shed += query_count(request)
                        continue
                    if self._shed(conn, request):
                        continue
                    conn.worker_busy = True
                    try:
                        yield from self._handle(conn, request)
                    finally:
                        conn.worker_busy = False
                    self.requests_handled += 1
                except Interrupt:
                    continue

    def _handle(self, conn: FmConnection, request) -> Generator:
        server = self.server
        segments = yield from run_plan(server, server.plan(request))
        yield from execute(server.host.cpu,
                           server.costs.response_cost(len(segments)))
        for segment in segments:
            yield from conn.response_ring.reserve(segment)
            yield conn.server_post_response(segment)


# -- the client's receiver: a process draining the response ring ------------


class _Segments:
    """The ``Store`` the receiver filled, in the session's mailbox terms."""

    def __init__(self, sim):
        self.store = Store(sim)

    def get(self):
        return self.store.get()

    def put(self, segment) -> None:
        self.store.put_discard(segment)

    def withdraw(self, get) -> None:
        get.cancel()


class StepwiseFmSession(FmSession):
    """A fast-messaging session with the receiver process."""

    def __init__(self, sim, conn, client_id, stats, retry=None, rng=None):
        self.sim = sim
        self.conn = conn
        self.stats = stats
        self.retry = retry
        self.rng = rng or random.Random(client_id)
        self._ids = RequestIdAllocator(client_id)
        self._segments = _Segments(sim)
        self._abandoned: Set[int] = set()
        self.heartbeats_seen = 0
        sim.process(self._receiver())

    def _receiver(self) -> Generator:
        while True:
            message = yield self.conn.response_ring.consume()
            if isinstance(message, Heartbeat):
                self.conn.mailbox.deliver(message)
                self.heartbeats_seen += 1
            elif isinstance(message, ResponseSegment):
                if message.req_id in self._abandoned:
                    self.stats.duplicates_suppressed += 1
                    if message.last:
                        self._abandoned.discard(message.req_id)
                    continue
                self._segments.put(message)
            else:
                self.stats.unexpected_messages += 1


class StepwiseKvFmSession(StepwiseFmSession, KvFmSession):
    """The same, with the KV wire codec."""
