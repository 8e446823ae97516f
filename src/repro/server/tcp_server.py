"""TCP/IP R-tree server — the paper's socket baseline.

One server thread per connection: recv request, run the service's op plan,
send the response back.  All the kernel CPU costs of the socket path are
charged by :class:`~repro.transport.tcp.TcpConnection`.
"""

from __future__ import annotations

from typing import List

from ..msg.codec import ResponseSegment, message_size
from ..sim.kernel import Simulator
from ..transport.tcp import TcpConnection
from .base import RTreeServer
from .plan import run_plan


class TcpRTreeServer:
    """Socket request loop on top of :class:`RTreeServer`."""

    def __init__(self, sim: Simulator, server: RTreeServer):
        self.sim = sim
        self.server = server
        self.connections: List[TcpConnection] = []
        self.requests_handled = 0

    def accept(self, conn: TcpConnection) -> None:
        """Register a connection and start its worker thread."""
        self.connections.append(conn)
        _TcpWorker(self, conn)


class _TcpWorker:
    """One connection's server thread, as kernel callbacks (it starts
    from an urgent entry, where a process would start)."""

    __slots__ = ("tcp", "conn", "plan")

    def __init__(self, tcp: TcpRTreeServer, conn: TcpConnection):
        self.tcp = tcp
        self.conn = conn
        self.plan = None
        tcp.sim.urgent(self._recv)

    def _recv(self, _event=None) -> None:
        get = self.conn.server_recv()
        if get.callbacks is None:  # a request was waiting
            self._serve(get)
        else:
            get.callbacks.append(self._serve)

    def _serve(self, get) -> None:
        server = self.tcp.server
        self.plan = server.plan(get._value.payload)
        run_plan(server, self.plan, self._reply)

    def _reply(self) -> None:
        # TCP is a byte stream: coalesce into one send, no CONT/END
        # segmentation needed.
        segments = self.plan.segments
        results = tuple(r for seg in segments for r in seg.results)
        response = ResponseSegment(
            segments[0].req_id, results, last=True, ok=segments[-1].ok,
            count=segments[-1].count,
        )
        self.conn.server_send_then(response, message_size(response),
                                   self._sent)

    def _sent(self) -> None:
        self.tcp.requests_handled += 1
        self._recv()
