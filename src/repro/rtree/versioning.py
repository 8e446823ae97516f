"""Torn-read detection for one-sided node reads (FaRM-style versions).

The paper (§III-B) adopts the version-number mechanism of FaRM: the server
stamps a version number into every cache line of a node on each write; a
client that RDMA-Reads a node checks that all version numbers agree and
retries otherwise.  Correctness rests on RDMA Read and CPU writes both
being cache-line atomic.

In the simulation the server cannot literally race the client (the DES is
single-threaded), so torn reads are *injected*: a :class:`WriteTracker`
wraps every server-side mutation in a ``begin/end`` window of simulated
time, and any snapshot taken inside such a window is marked torn.  This
yields the same observable behaviour — the retry rate grows with the
insert rate, degrading RDMA offloading under hybrid workloads exactly as
in the paper's Figs 12/13.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..sim.kernel import Simulator
from .node import Node
from .serialize import NodeView, snapshot_node


class VersionValidationError(Exception):
    """Raised when a client uses a torn snapshot it should have rejected."""


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


def validate_snapshot(view: NodeView) -> bool:
    """The client-side version check: False means retry the read."""
    return not view.torn


class SnapshotReader:
    """Server-side service for one-sided reads with retry accounting.

    Quiescent snapshots are cached per chunk and shared across reads: a
    node that has not mutated since the last read returns the *same*
    :class:`NodeView` instance instead of re-snapshotting every entry.
    The stamp is ``(node identity, version, mut_seq)`` — the same triple
    the byte-mode chunk cache uses (``version`` only bumps when the write
    window closes, ``mut_seq`` at the mutation itself, and the node
    identity guards recycled chunk ids).  Torn snapshots (a writer is
    mid-mutation) always bypass the cache.
    """

    def __init__(self, nodes: Dict[int, Node]):
        self._nodes = nodes
        self.reads = 0
        self.torn_reads = 0
        self.cached_reads = 0
        self._cache: Dict[int, tuple] = {}

    def read_chunk(self, chunk_id: int, now: float) -> NodeView:
        """Snapshot a chunk as the NIC's DMA engine would see it."""
        node = self._nodes.get(chunk_id)
        self.reads += 1
        if node is None:
            # Freed chunk (e.g. after a condense): present garbage that can
            # never validate, like reading recycled memory.
            self.torn_reads += 1
            return NodeView(level=0, chunk_id=chunk_id, entries=(),
                            version=-1, torn=True)
        if node.active_writers > 0:
            self.torn_reads += 1
            return snapshot_node(node, now)
        cached = self._cache.get(chunk_id)
        if (cached is not None and cached[0] is node
                and cached[1] == node.version
                and cached[2] == node.mut_seq):
            self.cached_reads += 1
            return cached[3]
        view = snapshot_node(node, now)
        self._cache[chunk_id] = (node, node.version, node.mut_seq, view)
        return view
