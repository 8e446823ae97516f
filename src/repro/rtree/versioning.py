"""Torn-read detection for one-sided node reads (FaRM-style versions).

The paper (§III-B) adopts the version-number mechanism of FaRM: the server
stamps a version number into every cache line of a node on each write; a
client that RDMA-Reads a node checks that all version numbers agree and
retries otherwise.  Correctness rests on RDMA Read and CPU writes both
being cache-line atomic.

In the simulation the server cannot literally race the client (the DES is
single-threaded), so torn reads are *injected*: a :class:`WriteTracker`
wraps every server-side mutation in a ``begin/end`` window of simulated
time, and any chunk read inside such a window returns a torn image
(:class:`~repro.server.base.ChunkReads`).  This
yields the same observable behaviour — the retry rate grows with the
insert rate, degrading RDMA offloading under hybrid workloads exactly as
in the paper's Figs 12/13.
"""

from __future__ import annotations

from typing import Sequence

from ..sim.kernel import Simulator
from .node import Node


class WriteTracker:
    """Opens and closes mutation windows over simulated time."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.total_writes = 0
        self.open_windows = 0

    def begin(self, nodes: Sequence[Node]) -> None:
        """Open a window: mark all ``nodes`` as being written."""
        for node in nodes:
            node.begin_write()
        self.open_windows += 1

    def end(self, nodes: Sequence[Node]) -> None:
        """Close the window :meth:`begin` opened over the same ``nodes``."""
        self.open_windows -= 1
        for node in nodes:
            node.end_write()
        self.total_writes += 1
