"""Point-to-point link model: FIFO serialization + propagation delay.

A :class:`Link` is unidirectional.  Transmitting ``n`` bytes first waits for
the transmitter (FIFO — this is where bandwidth saturation and queueing
delay come from), holds it for ``n / bandwidth`` seconds, then the message
propagates for ``latency`` seconds without occupying the transmitter (so
back-to-back messages pipeline, as on a real wire).

:meth:`Link.send` is the one way bytes move: a chain of kernel callbacks
that spends a queue entry only where shared state changes hands (an
injected penalty, the end of serialization, where the transmitter is
released, and a contended grant unless it can hop) and fuses the
propagation delay with whatever fixed delay the receiver adds
(``then``) into one wake-up at ``(end + latency) + then``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque

from ..sim.kernel import Event, Simulator


class Link:
    """A unidirectional link with finite bandwidth and fixed latency."""

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float,
        latency_s: float,
        name: str = "link",
    ):
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be > 0, got {bandwidth_bps}")
        if latency_s < 0:
            raise ValueError(f"latency must be >= 0, got {latency_s}")
        self.sim = sim
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.latency_s = latency_s
        self._bytes_per_s = bandwidth_bps / 8.0
        #: The transmitter: held by one message from grant to the end of
        #: its serialization, granted to waiters in FIFO order.
        self._busy = False
        self._waiting: Deque["_Send"] = deque()
        #: Bytes whose serialization has finished (Fig 2's bandwidth).
        self.total_bytes = 0
        #: Optional fault hook (see repro.faults): a zero-arg callable
        #: returning extra seconds this transfer waits before taking the
        #: transmitter (packet loss retransmits, latency spikes).
        self.fault_hook = None

    def send(self, nbytes: int, then: float,
             on_arrival: Callable[[Event], None]) -> None:
        """Transmit ``nbytes``; ``on_arrival(event)`` runs ``then``
        seconds after the last byte has arrived."""
        if nbytes < 0:
            raise ValueError(f"negative size {nbytes}")
        _Send(self, nbytes, then, on_arrival)


class _Send:
    """One message on one link: fault penalty, FIFO transmitter grant,
    serialization, then record + release and the fused arrival wake-up."""

    __slots__ = ("link", "nbytes", "then", "on_arrival")

    def __init__(self, link: Link, nbytes: int, then: float,
                 on_arrival: Callable[[Event], None]):
        self.link = link
        self.nbytes = nbytes
        self.then = then
        self.on_arrival = on_arrival
        hook = link.fault_hook
        if hook is not None:
            penalty = hook()
            if penalty > 0.0:
                link.sim.timeout(penalty).callbacks.append(self._request)
                return
        self._request(None)

    def _request(self, _event) -> None:
        link = self.link
        if link._busy:
            link._waiting.append(self)
        else:  # uncontended: granted on the spot
            link._busy = True
            self._serialize(None)

    def _serialize(self, _event) -> None:
        link = self.link
        link.sim.timeout(self.nbytes / link._bytes_per_s).callbacks.append(
            self._serialized)

    def _serialized(self, _event) -> None:
        link = self.link
        link.total_bytes += self.nbytes
        sim = link.sim
        now = sim.now
        # Propagation overlaps with the next sender's serialization.
        arrival = (now + link.latency_s) + self.then
        if not link._waiting:
            link._busy = False
            sim.wake_at(arrival).callbacks.append(self.on_arrival)
        elif arrival > now:
            # The grant is a same-instant hop, so it goes last; the arrival
            # falls after this instant, so queueing it first moves nothing.
            sim.wake_at(arrival).callbacks.append(self.on_arrival)
            sim.hop_call(link._waiting.popleft()._serialize)
        else:
            # A zero-delay arrival ties with the grant: keep their order.
            sim.wake_at(now).callbacks.append(
                link._waiting.popleft()._serialize)
            sim.wake_at(arrival).callbacks.append(self.on_arrival)


class DuplexLink:
    """A pair of opposite unidirectional links (one host's access link)."""

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float,
        latency_s: float,
        name: str = "duplex",
    ):
        self.tx = Link(sim, bandwidth_bps, latency_s, name=f"{name}.tx")
        self.rx = Link(sim, bandwidth_bps, latency_s, name=f"{name}.rx")
