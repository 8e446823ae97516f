"""TCP/IP transport model — the paper's baseline communication path.

Figure 4 of the paper contrasts TCP/IP with RDMA: TCP crosses the OS kernel
on *both* hosts (socket copies, protocol processing, interrupts) and always
involves the remote CPU.  This model charges those costs explicitly:

* the sender burns ``tcp_kernel_per_msg_s + bytes * tcp_kernel_per_byte_s``
  of its own CPU (contended, via the host's :class:`CorePool`);
* the message serializes over the shared server access link;
* the receiver burns the same kernel cost on *its* CPU before the payload
  reaches the application's receive queue.

This is why the TCP baselines in Figs 10-14 stay an order of magnitude
behind Catfish: the remote-CPU charge makes the server saturate early, and
the kernel latency inflates small-message RTTs.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from ..hw.host import Host
from ..net.fabric import Network
from ..sim.kernel import Simulator
from ..sim.resources import Store


class TcpMessage:
    """An application message with its payload size accounted."""

    __slots__ = ("payload", "size")

    def __init__(self, payload: Any, size: int):
        if size < 0:
            raise ValueError(f"negative message size {size}")
        self.payload = payload
        self.size = size


class TcpConnection:
    """A bidirectional stream between one client and the server."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        client: Host,
        server: Host,
        name: str = "tcp",
    ):
        self.sim = sim
        self.network = network
        self.client = client
        self.server = server
        self.name = name
        #: Messages awaiting the server application's recv().
        self.server_inbox: Store = Store(sim)
        #: Messages awaiting the client application's recv().
        self.client_inbox: Store = Store(sim)

    # -- internals --------------------------------------------------------

    def _kernel_cost(self, size: int) -> float:
        p = self.network.profile
        return p.tcp_kernel_per_msg_s + size * p.tcp_kernel_per_byte_s

    def _send(self, src: Host, dst: Host, inbox: Store, payload: Any,
              size: int, then: Callable[[], None]) -> None:
        """Send-side kernel processing on ``src`` (it blocks the sending
        thread: ``then()`` runs when it ends), then transit and the
        receive-side kernel processing on ``dst``, which continue
        asynchronously so the sender can pipeline (a non-blocking socket
        with a kernel buffer)."""
        message = TcpMessage(payload, size)

        def sent() -> None:
            self.network.send(
                src, dst, self.network.profile.wire_size(size), 0.0,
                lambda _event: dst.cpu.charge(
                    self._kernel_cost(size),
                    lambda: inbox.put_discard(message)))
            then()

        src.cpu.charge(self._kernel_cost(size), sent)

    def _send_from(self, src: Host, dst: Host, inbox: Store, payload: Any,
                   size: int) -> Generator:
        done = self.sim.event()
        self._send(src, dst, inbox, payload, size,
                   lambda: self.sim.fire(done))
        yield done

    # -- client side ------------------------------------------------------

    def client_send(self, payload: Any, size: int) -> Generator:
        """Send to the server; completes after local kernel processing."""
        yield from self._send_from(self.client, self.server,
                                   self.server_inbox, payload, size)

    def client_recv(self):
        """Event yielding the next server->client message."""
        return self.client_inbox.get()

    # -- server side ------------------------------------------------------

    def server_send(self, payload: Any, size: int) -> Generator:
        """Send to the client; completes after local kernel processing."""
        yield from self._send_from(self.server, self.client,
                                   self.client_inbox, payload, size)

    def server_send_then(self, payload: Any, size: int,
                         then: Callable[[], None]) -> None:
        """:meth:`server_send` for a callback chain."""
        self._send(self.server, self.client, self.client_inbox, payload,
                   size, then)

    def server_recv(self):
        """Event yielding the next client->server message."""
        return self.server_inbox.get()
