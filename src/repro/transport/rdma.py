"""RDMA verbs model: queue pairs, one-sided Read/Write, completion channels.

This is the substrate the whole paper stands on.  The crucial property is
enforced structurally: **one-sided operations never touch the remote CPU**.
An RDMA Read costs the remote host only NIC processing and link bandwidth;
an RDMA Write deposits data (and optionally an immediate-data completion)
without any remote core executing a single instruction.

Modelled verbs (all on a reliable connection, as in the paper §II-B):

* ``post_write(...)``            — RDMA Write
* ``post_write(imm=...)``        — RDMA Write with Immediate Data: also
  notifies the *remote* end's completion channel when the data lands,
  which is what wakes the event-based server threads (paper §IV-B, Fig 6b)
* ``post_read(...)``             — RDMA Read; returns the remote data

A work completion is modelled only by what the paper reads of it: the
op's done event, and a ``notify()`` of the completion channel attached
to the end it completes on (if any) — the RECV_IMM on the peer, a
write's ACK and a read's data on the poster.  There is no completion
queue to poll, since nothing in the system polls one.

Remote memory is addressed by ``(rkey, address)`` validated against the
remote host's :class:`~repro.hw.memory.MemoryRegistry`.  The *content* of a
region is a Python object bound to the rkey that implements
``rdma_write(address, length, payload, now)`` / ``rdma_read(address,
length, now)`` — ring buffers and the R-tree chunk area implement this
protocol.  The ``now`` timestamp is how the version-validation machinery
detects reads that overlap concurrent server writes (torn reads).

Each posted verb is a small op object whose steps are kernel callbacks
(no process, no generator).  The model is the stepwise one — post
overhead, NIC WQE, wire (see :meth:`~repro.net.link.Link.send`), remote
WQE, remote DMA, wire back, local WQE — but a run of fixed delays is one
wake-up, summed in the stepwise order, wherever no shared state is read
or written inside the run.  What remains queued per op:

* write: post overhead + WQE, end of serialization, arrival + remote WQE
  (the data lands), end of the ACK's serialization, the ACK's arrival —
  5 where the stepwise chain (a process per op) queues 9;
* read: post overhead + WQE, end of serialization, arrival + remote WQE
  (the DMA snapshot), end of the response's serialization, arrival + WQE
  — 5 where it queues 10.

The completion event wakes the op's waiter by a same-instant hop
(:meth:`~repro.sim.kernel.Simulator.hop`): inline when nothing else is
due at that instant, else one more entry.

A read's post overhead is fused only when its slot can be claimed at post
time without changing which read gets a slot (see
:meth:`~repro.hw.nic.Nic.claim_read_slot_early`); otherwise the overhead
and the WQE stay two hops around the slot claim, the second kept in the
read's place in post order (:meth:`~repro.sim.kernel.Simulator.wake_twin`).
An injected link penalty, a responder NIC stall and a contended read
slot each keep their own hop; a contended transmitter's grant is a
same-instant hop.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from ..hw.host import Host
from ..net.fabric import Network
from ..net.wire import IB_ACK_SIZE, IB_READ_REQUEST_SIZE, ib_wire_size
from ..sim.kernel import Event, Simulator
from ..sim.resources import Store

#: Sentinel deposited into a CompletionChannel's store per notification
#: (the woken thread never inspects it).
_NOTIFICATION = object()


class RdmaError(Exception):
    """Raised for verb misuse (posting on a torn-down QP, etc.)."""


class CompletionChannel:
    """The blocking notification path used by event-based fast messaging.

    A server thread yields :meth:`wait` and is descheduled; the NIC
    ``notify()``-s it when a work completion lands on its queue pair's
    end (Fig 6b step 2).
    """

    def __init__(self, sim: Simulator, name: str = "channel"):
        self.sim = sim
        self.name = name
        self._store: Store = Store(sim)
        self.wakeups = 0

    def notify(self) -> None:
        self.wakeups += 1
        self._store.put_discard(_NOTIFICATION)

    def wait(self):
        """Event yielding when the next notification arrives."""
        return self._store.get()


class QpEndpoint:
    """One side of a reliable-connection queue pair."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        local: Host,
        remote: Host,
        name: str = "qp",
    ):
        self.sim = sim
        self.network = network
        self.local = local
        self.remote = remote
        self.name = name
        #: Notified on every work completion at this end (see the module
        #: docstring); attached by an event-mode server.
        self.channel: Optional[CompletionChannel] = None
        profile = network.profile
        #: Software cost of one doorbell (WQE build + MMIO), seconds.
        self._post_s = profile.rdma_post_overhead_s
        #: NIC processing per WQE, on each NIC an op crosses, seconds.
        self._wqe_s = profile.rdma_nic_processing_s
        self.peer: Optional["QpEndpoint"] = None

    # -- verbs -------------------------------------------------------------

    def post_write(
        self,
        rkey: int,
        remote_addr: int,
        payload: Any,
        length: int,
        imm: Optional[int] = None,
    ) -> Event:
        """Post an RDMA Write (w/ IMM if ``imm`` given).

        Returns an event that succeeds once the write is acknowledged.  The
        remote CPU is never involved; if ``imm`` is set, the remote *NIC*
        notifies the peer's completion channel when the data lands.
        """
        self._check_alive()
        if length < 0:
            raise ValueError(f"negative length {length}")
        done = self.sim.event()
        _Write(self, rkey, remote_addr, payload, length, imm, done)
        return done

    def post_read(
        self,
        rkey: int,
        remote_addr: int,
        length: int,
    ) -> Event:
        """Post an RDMA Read; the returned event's value is the data read.

        Costs the remote host NIC processing + tx bandwidth only — by
        construction no remote CPU cycles are consumed.
        """
        self._check_alive()
        if length <= 0:
            raise ValueError(f"read length must be > 0, got {length}")
        done = self.sim.event()
        _Read(self, rkey, remote_addr, length, done).post(spare=0)
        return done

    def post_read_batch(
        self, reads: Sequence[Tuple[int, int, int]]
    ) -> List[Event]:
        """Post several RDMA Reads with one doorbell (RDMAbox-style).

        ``reads`` is a sequence of ``(rkey, remote_addr, length)`` work
        requests.  The WQEs are chained so the per-post software
        overhead (``rdma_post_overhead_s``) is paid once for the whole
        batch instead of once per read — the NIC processing, wire time
        and read-slot arbitration of each read are unchanged: the first
        read claims its slot once the overhead is paid, the chained ones
        claim theirs at once.  Returns one completion event per read, in
        request order.
        """
        self._check_alive()
        for _rkey, _remote_addr, length in reads:
            if length <= 0:
                raise ValueError(f"read length must be > 0, got {length}")
        ops = [_Read(self, rkey, remote_addr, length, self.sim.event())
               for rkey, remote_addr, length in reads]
        if ops:
            chained = len(ops) - 1
            self.local.nic.make_room(chained)
            ops[0].post(spare=chained)
            for op in ops[1:]:
                op.claim()
        return [op.done for op in ops]

    # -- internals ----------------------------------------------------------

    def _check_alive(self) -> None:
        if self.peer is None:
            raise RdmaError(f"QP {self.name} is not connected")

    def _validated_target(self, rkey: int, address: int, length: int):
        self.remote.memory.validate(rkey, address, length)
        target = self.remote.memory.target_of(rkey)
        if target is None:
            raise RdmaError(
                f"rkey {rkey} on {self.remote.name} has no bound target"
            )
        return target


class _Write:
    """One posted RDMA Write (w/ IMM): post overhead + local WQE, the data
    on the wire, remote WQE + landing, the ACK back, the completion."""

    __slots__ = ("qp", "rkey", "addr", "payload", "length", "imm", "done",
                 "error")

    def __init__(self, qp: QpEndpoint, rkey: int, addr: int, payload: Any,
                 length: int, imm: Optional[int], done: Event):
        self.qp = qp
        self.rkey = rkey
        self.addr = addr
        self.payload = payload
        self.length = length
        self.imm = imm
        self.done = done
        self.error: Optional[BaseException] = None
        sim = qp.sim
        sim.wake_at((sim.now + qp._post_s) + qp._wqe_s).callbacks.append(
            self._send)

    def _send(self, _event) -> None:
        qp = self.qp
        qp.local.nic.ops_processed += 1
        qp.network.send(qp.local, qp.remote, ib_wire_size(self.length),
                        qp._wqe_s, self._land)

    def _land(self, _event) -> None:
        qp = self.qp
        sim = qp.sim
        qp.remote.nic.ops_processed += 1
        # ACK back to the requester (hardware-level, no payload).  It is
        # sent before the data lands: everything it queues falls after
        # this instant, so the order in which anything runs is unchanged,
        # and the landing can then be the last thing this step does (a
        # ring hands a landed message on by same-instant hops).
        qp.network.send(qp.remote, qp.local, IB_ACK_SIZE, 0.0, self._acked)
        imm = self.imm
        if imm is not None:  # the RECV_IMM notification comes after it
            tail, sim._tail = sim._tail, False
        try:
            target = qp._validated_target(self.rkey, self.addr,
                                          max(self.length, 1))
            target.rdma_write(self.addr, self.length, self.payload, sim.now)
        except Exception as exc:  # protection fault -> failed completion
            self.error = exc
        else:
            if imm is not None and qp.peer.channel is not None:
                qp.peer.channel.notify()
        if imm is not None:
            sim._tail = tail

    def _acked(self, _event) -> None:
        qp = self.qp
        if qp.channel is not None:  # failed or not, the write completes
            qp.channel.notify()
        if self.error is None:
            qp.sim.hop(self.done, None)
        else:
            self.done.fail(self.error)


class _Read:
    """One posted RDMA Read: a read slot, the request on the wire, remote
    WQE + DMA snapshot, the data back, local WQE, the completion."""

    __slots__ = ("qp", "rkey", "addr", "length", "done", "early", "due",
                 "wake", "on_time", "result")

    def __init__(self, qp: QpEndpoint, rkey: int, addr: int, length: int,
                 done: Event):
        self.qp = qp
        self.rkey = rkey
        self.addr = addr
        self.length = length
        self.done = done
        #: Holds a slot claimed at post time (see post()).
        self.early = False
        #: The fused post-overhead + WQE wake-up while it is pending.
        self.wake = None
        #: Whether the slot was granted the instant it was claimed, so the
        #: WQE ends at the wake-up kept in this read's place.
        self.on_time = False
        self.result: Any = None

    def post(self, spare: int) -> None:
        """Pay the doorbell's post overhead, claim a slot, pay the WQE.

        With the slot claimed early (see
        :meth:`~repro.hw.nic.Nic.claim_read_slot_early`) the overhead and
        the WQE are one wake-up.  Otherwise the claim is a wake-up at
        ``due`` and the WQE end a twin of it, so a read granted on the spot
        reaches the wire in post order with every op posted this instant.
        """
        qp = self.qp
        sim = qp.sim
        due = self.due = sim.now + qp._post_s
        if not qp.local.nic.claim_read_slot_early(self, spare):
            claim = sim.wake_at(due)
            claim.callbacks.append(self._posted)
            sim.wake_twin(claim, due + qp._wqe_s).callbacks.append(
                self._wqe_end)
            return
        self.early = True
        self.wake = sim.wake_at(due + qp._wqe_s)
        self.wake.callbacks.append(self._posted)

    def unclaim(self) -> bool:
        """Hand an early-claimed slot back and claim at ``due`` after all
        (see :meth:`~repro.hw.nic.Nic.make_room`); False if the fused
        wake-up already fired."""
        wake = self.wake
        if wake is None:
            return False
        self.qp.local.nic.release_read_slot()
        self.early = False
        sim = self.qp.sim
        sim.retime(wake, self.due)
        sim.wake_twin(wake, self.due + self.qp._wqe_s).callbacks.append(
            self._wqe_end)
        return True

    def _posted(self, _event) -> None:
        self.wake = None
        if self.early:  # fused: the overhead and the WQE are paid
            self._request(None)
            return
        # The post overhead just ended: claim a slot now.  If one is free
        # the WQE ends at the twin wake-up, else once one is handed over.
        self.on_time = self.qp.local.nic.claim_read_slot_due(self._granted)

    def _wqe_end(self, _event) -> None:
        if self.on_time:
            self._request(None)

    def claim(self) -> None:
        """A chained read's claim, at post time; the WQE starts once the
        slot is granted."""
        if self.qp.local.nic.claim_read_slot(self._granted):
            self._granted(None)

    def _granted(self, _event) -> None:
        self.qp.sim.timeout(self.qp._wqe_s).callbacks.append(self._request)

    def _request(self, _event) -> None:
        qp = self.qp
        qp.local.nic.ops_processed += 1
        qp.network.send(qp.local, qp.remote, IB_READ_REQUEST_SIZE,
                        qp._wqe_s, self._at_responder)

    def _at_responder(self, _event) -> None:
        # Remote side: NIC-only processing; DMA snapshot taken here.
        qp = self.qp
        remote_nic = qp.remote.nic
        remote_nic.ops_processed += 1
        if remote_nic.fault_injector is not None:
            # Injected responder-side stall (PCIe/DMA contention); delays
            # the snapshot, so concurrent server writes get a larger
            # window to tear it.
            stall = remote_nic.read_stall_s()
            if stall > 0.0:
                qp.sim.timeout(stall).callbacks.append(self._snapshot)
                return
        self._snapshot(None)

    def _snapshot(self, _event) -> None:
        qp = self.qp
        try:
            target = qp._validated_target(self.rkey, self.addr, self.length)
            self.result = target.rdma_read(self.addr, self.length,
                                           qp.sim.now)
        except Exception as exc:
            self.result = exc
            qp.network.send(qp.remote, qp.local, IB_ACK_SIZE, 0.0,
                            self._failed)
            return
        qp.network.send(qp.remote, qp.local, ib_wire_size(self.length),
                        qp._wqe_s, self._complete)

    def _complete(self, _event) -> None:
        qp = self.qp
        nic = qp.local.nic
        nic.ops_processed += 1
        data = self.result
        if qp.channel is not None:
            qp.channel.notify()
        if nic.read_claims_waiting:
            # The slot goes to the oldest claim, whose grant is queued
            # behind the completion.
            self.done.succeed(data)
            nic.release_read_slot()
        else:
            # Nothing is queued by the release: the completion can be the
            # last thing this step does.
            nic.release_read_slot()
            qp.sim.hop(self.done, data)

    def _failed(self, _event) -> None:
        self.done.fail(self.result)
        self.qp.local.nic.release_read_slot()


def connect(
    sim: Simulator,
    network: Network,
    host_a: Host,
    host_b: Host,
    name: str = "qp",
) -> tuple:
    """Create a connected RC queue pair; returns (endpoint_a, endpoint_b).

    Stands in for the TCP bootstrap the paper uses to exchange QP numbers
    and registered addresses before RDMA traffic starts.
    """
    end_a = QpEndpoint(sim, network, host_a, host_b, name=f"{name}.a")
    end_b = QpEndpoint(sim, network, host_b, host_a, name=f"{name}.b")
    end_a.peer = end_b
    end_b.peer = end_a
    return end_a, end_b
