"""Fast messaging: RDMA-Write request/response through ring buffers.

This is the paper's first design (§III-A) plus the event-based enhancement
(§IV-B):

* the client RDMA-Writes a request message into the server's ring buffer;
* a per-connection server thread picks it up —
  - **polling mode** (the FaRM-style baseline): the thread busy-polls the
    ring tail; with more threads than cores the OS scheduler delays the
    poll that would notice the message (the quadratic latency of Fig 7a);
  - **event mode** (Catfish): the client uses RDMA Write *with Immediate
    Data*, the NIC posts a work completion, and the thread sleeps on a
    completion channel until woken (Fig 6b);
* the thread executes the R-tree operation and RDMA-Writes the response
  segments (CONT/END) back into the client's ring buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..hw.host import Host
from ..msg.codec import message_size
from ..msg.ringbuffer import DEFAULT_RING_CAPACITY, RingBuffer
from ..net.fabric import Network
from ..obs.registry import MetricsRegistry, expose_fields
from ..sim.kernel import Event, Simulator
from ..transport.rdma import CompletionChannel, QpEndpoint, connect
from .base import RTreeServer
from .heartbeat import HeartbeatMailbox
from .plan import run_plan

POLLING = "polling"
EVENT = "event"


@dataclass
class FmConnection:
    """Everything one client<->server fast-messaging pair shares."""

    conn_id: int
    client_host: Host
    #: Request ring: lives in server memory, written by the client.
    request_ring: RingBuffer = None
    request_rkey: int = 0
    request_addr: int = 0
    #: Response ring: lives in client memory, written by the server.
    response_ring: RingBuffer = None
    response_rkey: int = 0
    response_addr: int = 0
    #: Heartbeat mailbox (``u_serv``) in client memory.
    mailbox: HeartbeatMailbox = field(default_factory=HeartbeatMailbox)
    client_end: QpEndpoint = None
    server_end: QpEndpoint = None
    server_channel: Optional[CompletionChannel] = None
    use_imm: bool = False
    #: The per-connection server thread (set by ``open_connection``).
    worker: Optional["_Worker"] = None
    #: Fail-stop crash state (see ``FastMessagingServer.crash_worker``).
    worker_down: bool = False
    worker_restart: Optional[Event] = None
    #: True while the worker is executing a request (crash delivery is
    #: deferred to the next request boundary when set).
    worker_busy: bool = False

    # -- client-side send / server-side send helpers ------------------------

    def client_post_request(self, request):
        """Post the RDMA Write delivering ``request`` to the server ring."""
        return self.client_end.post_write(
            self.request_rkey,
            self.request_addr,
            request,
            message_size(request),
            imm=self.conn_id if self.use_imm else None,
        )

    def server_post_response(self, segment):
        """Post the RDMA Write delivering ``segment`` to the client ring."""
        return self.server_end.post_write(
            self.response_rkey,
            self.response_addr,
            segment,
            message_size(segment),
        )


class FastMessagingServer:
    """Per-connection server threads over ring buffers."""

    #: The int counts :meth:`register_metrics` exposes as ``server.*``.
    COUNTER_FIELDS = ("requests_handled", "requests_shed",
                      "workers_crashed", "workers_restarted")

    def __init__(
        self,
        sim: Simulator,
        server: RTreeServer,
        network: Network,
        mode: str = EVENT,
        ring_capacity: int = DEFAULT_RING_CAPACITY,
        max_queue_depth: Optional[int] = None,
    ):
        if mode not in (POLLING, EVENT):
            raise ValueError(f"unknown notification mode {mode!r}")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}"
            )
        self.sim = sim
        self.server = server
        self.network = network
        self.mode = mode
        self.ring_capacity = ring_capacity
        #: Overload guard: a consumed request is shed (dropped, counted)
        #: when this many requests are still queued behind it.  None
        #: disables shedding (the seed behaviour).  Clients recover the
        #: shed request via their retry policy.
        self.max_queue_depth = max_queue_depth
        self.connections: List[FmConnection] = []
        self.requests_handled = 0
        self.requests_shed = 0
        self.workers_crashed = 0
        self.workers_restarted = 0

    @property
    def n_connections(self) -> int:
        return len(self.connections)

    def register_metrics(self, registry: MetricsRegistry,
                         prefix: str = "server") -> None:
        """Expose server-side fast-messaging metrics in ``registry``.

        Ring and completion-channel numbers are pull gauges aggregated
        over every open connection, so late-opened connections are
        included automatically.
        """
        expose_fields(registry, prefix, [self], self.COUNTER_FIELDS)
        registry.expose(f"{prefix}.connections", lambda: self.n_connections)
        registry.expose(
            f"{prefix}.workers_down",
            lambda: sum(1 for c in self.connections if c.worker_down),
        )
        conns = self.connections
        registry.expose(
            f"{prefix}.request_ring_bytes",
            lambda: sum(c.request_ring.bytes_sent for c in conns),
        )
        registry.expose(
            f"{prefix}.response_ring_bytes",
            lambda: sum(c.response_ring.bytes_sent for c in conns),
        )
        registry.expose(
            f"{prefix}.request_ring_high_watermark",
            lambda: max((c.request_ring.high_watermark for c in conns),
                        default=0),
        )
        registry.expose(
            f"{prefix}.response_ring_high_watermark",
            lambda: max((c.response_ring.high_watermark for c in conns),
                        default=0),
        )
        registry.expose(
            f"{prefix}.channel_wakeups",
            lambda: sum(c.server_channel.wakeups for c in conns
                        if c.server_channel is not None),
        )

    def open_connection(self, client_host: Host) -> FmConnection:
        """Bootstrap one client: rings, registered regions, QP, worker."""
        sim = self.sim
        server_host = self.server.host
        conn_id = len(self.connections)
        conn = FmConnection(conn_id=conn_id, client_host=client_host,
                            use_imm=(self.mode == EVENT))

        conn.request_ring = RingBuffer(
            sim, self.ring_capacity, name=f"req-ring-{conn_id}"
        )
        req_region = server_host.memory.register(
            self.ring_capacity, name=f"req-ring-{conn_id}"
        )
        server_host.memory.bind(req_region.rkey, conn.request_ring)
        conn.request_rkey = req_region.rkey
        conn.request_addr = req_region.base

        conn.response_ring = RingBuffer(
            sim, self.ring_capacity, name=f"resp-ring-{conn_id}"
        )
        resp_region = client_host.memory.register(
            self.ring_capacity, name=f"resp-ring-{conn_id}"
        )
        client_host.memory.bind(resp_region.rkey, conn.response_ring)
        conn.response_rkey = resp_region.rkey
        conn.response_addr = resp_region.base

        mailbox_region = client_host.memory.register(64, name=f"hb-{conn_id}")
        client_host.memory.bind(mailbox_region.rkey, conn.mailbox)

        conn.client_end, conn.server_end = connect(
            sim, self.network, client_host, server_host,
            name=f"fm-{conn_id}",
        )
        if self.mode == EVENT:
            conn.server_channel = CompletionChannel(
                sim, name=f"chan-{conn_id}"
            )
            conn.server_end.cq.attach_channel(conn.server_channel)

        self.connections.append(conn)
        if self.mode == POLLING:
            # Every connection adds a busy-polling thread; useful work on
            # oversubscribed cores slows down accordingly.
            self.server.service_inflation = (
                self.server.host.scheduler.service_inflation(
                    self.n_connections
                )
            )
        conn.worker = _Worker(self, conn)
        return conn

    # -- fail-stop worker crashes (see repro.faults) -------------------------

    def crash_worker(self, conn: FmConnection) -> None:
        """Kill ``conn``'s worker thread (fail-stop) until restarted.

        Delivery is at a request boundary: a worker parked at its idle
        wait is interrupted immediately; one mid-request finishes the
        request in flight first (it holds tree locks and a core slot the
        simulation has no OS to reclaim), then parks.  Requests written
        to the ring while down simply queue; the restart drains them.
        """
        if conn.worker_down:
            return
        conn.worker_down = True
        conn.worker_restart = self.sim.event()
        self.workers_crashed += 1
        # Only the event-mode idle wait is interrupted: a polling worker
        # parked on consume() is left to complete the consume — the
        # request it picks up while down is then shed *with accounting*
        # (interrupting would silently lose the in-flight consume).  A
        # worker that has not run its first step yet needs no interrupt:
        # it reads ``worker_down`` before its first wait.
        if (self.mode == EVENT and not conn.worker_busy
                and conn.worker is not None and conn.worker.started):
            conn.worker.crash()

    def restart_worker(self, conn: FmConnection) -> None:
        """Bring a crashed worker back; it drains the backlog at once."""
        if not conn.worker_down:
            return
        conn.worker_down = False
        self.workers_restarted += 1
        restart, conn.worker_restart = conn.worker_restart, None
        restart.succeed()

    # -- the server thread ------------------------------------------------------

    def _shed(self, conn: FmConnection) -> bool:
        """Overload guard: True when the consumed request must be dropped.

        Measured *after* consumption: with more than ``max_queue_depth``
        requests still waiting behind this one, the backlog has outrun
        the deadline any client would still be waiting on — executing it
        would waste server time on an answer nobody accepts.
        """
        cap = self.max_queue_depth
        if cap is not None and conn.request_ring.pending_messages >= cap:
            self.requests_shed += 1
            return True
        return False


class _Worker:
    """One connection's server thread, as kernel callbacks.

    It is the loop a thread runs — wait idle, wake, drain the ring one
    request at a time — with every step a callback on the event the
    thread would have waited on, so it queues the entries a process
    running the same loop queued, in the same order.  A request is the
    service's op plan (:func:`~repro.server.plan.run_plan`), then the
    response: one core charge, then per segment a response-ring
    reservation and the RDMA Write, whose ACK wakes the thread by a
    same-instant hop.  The thread stands in for a process where it must:
    it starts from an urgent entry, like an ``Initialize``, and a crash
    at the idle wait abandons the awaited event and resumes it at the
    loop's top from an urgent entry, like an interrupt.
    """

    __slots__ = ("fm", "conn", "started", "_target", "_request",
                 "_segments", "_written")

    def __init__(self, fm: "FastMessagingServer", conn: FmConnection):
        self.fm = fm
        self.conn = conn
        self.started = False
        #: The event the idle thread waits on; anything else calling back
        #: is one a crash abandoned.
        self._target: Optional[Event] = None
        #: (polling) The request consumed, until the thread notices it.
        self._request = None
        #: The response being written, and how many segments are out.
        self._segments: list = []
        self._written = 0
        fm.sim.urgent(self._start)

    def _start(self, _event) -> None:
        self.started = True
        self._idle()

    def crash(self) -> None:
        """A crash delivered at the idle wait (see ``crash_worker``)."""
        self._target = None
        self.fm.sim.urgent(self._idle)

    def _wait(self, event: Event, then: Callable[[Event], None]) -> None:
        self._target = event
        if event.callbacks is None:  # already processed: go on now
            then(event)
        else:
            event.callbacks.append(then)

    # -- the idle loop ---------------------------------------------------------

    def _idle(self, _event: Optional[Event] = None) -> None:
        conn = self.conn
        if conn.worker_down:
            self._wait(conn.worker_restart, self._awake)
        elif self.fm.mode == EVENT:
            self._wait(conn.server_channel.wait(), self._notified)
        else:
            self._wait(conn.request_ring.consume(), self._consumed)

    def _notified(self, event: Event) -> None:
        if event is not self._target:
            return
        delay = self.fm.server.host.scheduler.event_wakeup_delay()
        self._wait(self.fm.sim.timeout(delay), self._awake)

    def _awake(self, event: Event) -> None:
        """Woken (event mode) or restarted: drain the ring, or (polling)
        go back to consuming it."""
        if event is not self._target:
            return
        self._target = None
        if self.fm.mode == EVENT:
            # After a restart: requests piled up while the worker was
            # down.  The crash also abandoned any in-flight channel wait,
            # which may swallow one notification — the unconditional
            # drain compensates.
            self._drain()
        else:
            self._idle()

    def _drain(self) -> None:
        # Completions coalesce: while this thread slept (or was busy
        # handling a request), more writes may have landed in the ring
        # than notifications will wake us for.  Drain the ring fully on
        # every wakeup so no request waits for an unrelated later wakeup.
        conn = self.conn
        while not conn.worker_down:
            found, request = conn.request_ring.try_consume()
            if not found:
                break
            if self.fm._shed(conn):
                continue
            self._serve(request)
            return
        self._idle()

    def _consumed(self, event: Event) -> None:
        if event is not self._target:
            return
        # The message is in the ring, but the polling thread must be
        # scheduled onto a core to notice it.
        self._request = event._value
        fm = self.fm
        delay = fm.server.host.scheduler.polling_wakeup_delay(
            fm.n_connections)
        self._wait(fm.sim.timeout(delay), self._noticed)

    def _noticed(self, event: Event) -> None:
        if event is not self._target:
            return
        self._target = None
        request, self._request = self._request, None
        if self.conn.worker_down:
            # Crashed between consume and dispatch: the request dies with
            # the thread (fail-stop).
            self.fm.requests_shed += 1
            self._idle()
        elif self.fm._shed(self.conn):
            self._idle()
        else:
            self._serve(request)

    # -- one request -----------------------------------------------------------

    def _serve(self, request) -> None:
        self.conn.worker_busy = True
        server = self.fm.server
        plan = server.plan(request)
        self._segments = plan.segments
        self._written = 0
        run_plan(server, plan, self._respond)

    def _respond(self) -> None:
        server = self.fm.server
        server.host.cpu.charge(
            server.costs.response_cost(len(self._segments)), self._write)

    def _write(self, event: Optional[Event] = None) -> None:
        if event is not None and event._ok is False:
            return  # a failed response write: surfaces from the run
        if self._written < len(self._segments):
            segment = self._segments[self._written]
            self._written += 1
            self.conn.response_ring.reserve_then(segment, self._post)
            return
        self.conn.worker_busy = False
        self.fm.requests_handled += 1
        if self.fm.mode == EVENT:
            self._drain()
        else:
            self._idle()

    def _post(self) -> None:
        segment = self._segments[self._written - 1]
        self.conn.server_post_response(segment).callbacks.append(
            self._write)
