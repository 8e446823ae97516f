"""Server CPU-utilization heartbeats (paper §IV-A).

Every ``Inv`` (10 ms in the paper) the server samples its CPU utilization
over the elapsed window and RDMA-Writes it to every connected client
through the response ring buffer.  Heartbeats are droppable: if a client's
ring has no room (its link is congested), the heartbeat is skipped — the
client-side algorithm deliberately treats a missing heartbeat as "do not
offload", because offloading would add bandwidth to an already saturated
link.

Each heartbeat carries a monotone sequence number.  The client consumes a
heartbeat only when the mailbox sequence advanced past the last one it
read (:meth:`HeartbeatMailbox.consume_fresh`), which makes a genuine
``0.0``-utilization heartbeat distinguishable from "no heartbeat arrived"
— comparing the utilization value against zero cannot tell the two apart.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional, Tuple

from ..msg.codec import Heartbeat
from ..obs.registry import Counter, MetricsRegistry
from ..sim.kernel import Simulator

#: The paper's heartbeat interval.
DEFAULT_HEARTBEAT_INTERVAL = 10e-3


class HeartbeatMailbox:
    """The client-side ``u_serv`` memory region of Algorithm 1."""

    def __init__(self) -> None:
        self.value = 0.0
        self.seq = -1
        self.updates = 0
        #: Last piggybacked cache-invalidation hint (tree mut_seq
        #: high-water mark); None until a hint-carrying beat lands.
        self.mut_hint: Optional[int] = None
        #: Callbacks fed every invalidation hint as it is delivered (the
        #: offload engine's node cache registers here, so a write storm
        #: flushes stale views without waiting for the next search).
        self._hint_sinks: List[Callable[[int], None]] = []

    def attach_hint_sink(self, sink: Callable[[int], None]) -> None:
        """Register a consumer for piggybacked invalidation hints."""
        self._hint_sinks.append(sink)

    def rdma_write(self, address: int, length: int, payload, now: float):
        """Verbs target: the server's heartbeat write lands here."""
        if not isinstance(payload, Heartbeat):
            raise TypeError(f"mailbox got {type(payload).__name__}")
        self.deliver(payload)

    def deliver(self, heartbeat: Heartbeat) -> None:
        self.value = heartbeat.utilization
        self.seq = heartbeat.seq
        self.updates += 1
        if heartbeat.mut_seq is not None:
            self.mut_hint = heartbeat.mut_seq
            for sink in self._hint_sinks:
                sink(heartbeat.mut_seq)

    def read_and_clear(self) -> float:
        """Algorithm 1 lines 7-10: read ``u_serv`` then memset it to 0."""
        value = self.value
        self.value = 0.0
        return value

    def consume_fresh(self, last_seq: int) -> Optional[Tuple[int, float]]:
        """Consume the heartbeat iff one arrived since ``last_seq``.

        Returns ``(seq, utilization)`` for a fresh heartbeat, or ``None``
        when the mailbox is empty / unchanged — the unambiguous form of
        the paper's "missing heartbeat" signal (a genuine 0.0-utilization
        heartbeat is *fresh*, not missing).

        A sequence *regression* (``seq`` below ``last_seq`` on a mailbox
        that has received at least one beat) means the server restarted
        and its counter reset; the beat is consumed as fresh so the
        client re-synchronizes instead of reading every post-restart
        beat as missing until the counter catches up.
        """
        if self.updates == 0 or self.seq == last_seq:
            return None
        seq = self.seq
        value = self.value
        self.value = 0.0
        return seq, value


class HeartbeatService:
    """The server-side module broadcasting utilization to clients."""

    def __init__(
        self,
        sim: Simulator,
        cpu_window_utilization,
        interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        mut_seq_fn: Optional[Callable[[], int]] = None,
    ):
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.sim = sim
        self.interval = interval
        self._sample = cpu_window_utilization
        #: When set, every beat piggybacks this sampler's value (the
        #: tree's mutation high-water mark) as a client-cache
        #: invalidation hint; None keeps the legacy wire format.
        self._mut_seq_fn = mut_seq_fn
        #: (response_ring, send_fn) per connection; send_fn posts the
        #: actual RDMA Write of a heartbeat into that client's ring.
        self._subscribers: List = []
        self._seq = 0
        self.beats_sent = Counter("heartbeat.beats_sent")
        self.beats_dropped = Counter("heartbeat.beats_dropped")
        self.beats_suppressed = Counter("heartbeat.beats_suppressed")
        self.last_utilization = 0.0
        self._proc = None
        #: Optional fault hook (see repro.faults): a zero-arg callable,
        #: true when this tick's beat must be silently skipped (a
        #: heartbeat blackout, or the shard is lost).
        self.suppressed = None

    def subscribe(self, response_ring, send_fn) -> None:
        self._subscribers.append((response_ring, send_fn))

    def start(self) -> None:
        if self._proc is None:
            self._proc = self.sim.process(self._run(), name="heartbeat")

    def register_metrics(self, registry: MetricsRegistry,
                         prefix: str = "heartbeat") -> None:
        """Adopt the service counters into ``registry``."""
        registry.adopt(f"{prefix}.beats_sent", self.beats_sent)
        registry.adopt(f"{prefix}.beats_dropped", self.beats_dropped)
        registry.adopt(f"{prefix}.beats_suppressed", self.beats_suppressed)
        registry.expose(f"{prefix}.last_utilization",
                        lambda: self.last_utilization)
        registry.expose(f"{prefix}.seq", lambda: self._seq)

    def _run(self) -> Generator:
        while True:
            yield self.sim.timeout(self.interval)
            if self.suppressed is not None and self.suppressed():
                # Blackout: this tick sends nothing (and, unlike the
                # ring-full drop below, not even samples).  The sequence
                # number does not advance, so clients read the silence as
                # "missing heartbeat" — exactly Algorithm 1's signal.
                self.beats_suppressed += 1
                continue
            utilization = self._sample()
            self.last_utilization = utilization
            self._seq += 1
            mut_seq = (self._mut_seq_fn()
                       if self._mut_seq_fn is not None else None)
            heartbeat = Heartbeat(utilization=utilization, seq=self._seq,
                                  mut_seq=mut_seq)
            for ring, send_fn in self._subscribers:
                if ring.try_reserve(heartbeat):
                    send_fn(heartbeat)
                    self.beats_sent += 1
                else:
                    self.beats_dropped += 1
