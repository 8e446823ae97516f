"""TCP/IP client session — the paper's socket baseline."""

from __future__ import annotations

from typing import Generator, List, Tuple

from ..msg.codec import message_size
from ..rtree.geometry import Rect
from ..sim.kernel import Simulator
from ..transport.tcp import TcpConnection
from .base import (
    OP_COUNT,
    READ_OPS,
    ClientStats,
    Request,
    RequestIdAllocator,
    encode_request,
)


class TcpSession:
    """Synchronous request/response over one TCP connection."""

    def __init__(
        self,
        sim: Simulator,
        conn: TcpConnection,
        client_id: int,
        stats: ClientStats,
    ):
        self.sim = sim
        self.conn = conn
        self.stats = stats
        self._ids = RequestIdAllocator(client_id)

    def execute(self, request: Request) -> Generator:
        """Run one request; returns the matches or count (reads) or the
        ack (writes)."""
        self.stats.fast_messaging_requests += 1  # server-side execution
        wire = encode_request(self._ids.next_id(), request)
        yield from self.conn.client_send(wire, message_size(wire))
        message = yield self.conn.client_recv()
        response = message.payload
        if response.req_id != wire.req_id:
            raise RuntimeError(
                f"response for {response.req_id} while awaiting {wire.req_id}"
            )
        if request.op not in READ_OPS:
            return response.ok
        if request.op == OP_COUNT:
            self.stats.results_received += response.count or 0
            return response.count
        results: List[Tuple[Rect, int]] = list(response.results)
        self.stats.results_received += len(results)
        return results
