"""Client-side cache of internal R-tree node snapshots (RDMAbox-style).

The offload path re-fetches the same upper tree levels on every
one-sided search, paying a round trip for chunks whose content has not
changed since the last search.  This module caches internal
:class:`~repro.rtree.serialize.NodeView` snapshots client-side so a
repeated traversal serves the upper levels from local memory and only
pays RTTs for the leaf level (which is always re-read — the FaRM-style
version validation on fresh leaf reads is the correctness safety net).

Consistency model
-----------------
Every cached view is stamped with the server's tree-wide *mutation
high-water mark* (``RStarTree.mut_hwm``, bumped on every structural
mutation) in effect when the view was fetched.  The mark reaches the
client through two channels:

* the meta read every search already performs (the ``TreeMeta`` pad
  word now carries it), which makes it *exact at search start*: a hit
  is served only when its stamp equals the mark the current search
  observed, so a cached view is indistinguishable from a fresh read
  taken at search start — the same quiescence guarantee the server's
  own ``(node, version, mut_seq)`` snapshot caches give;
* heartbeat piggybacking (:class:`~repro.msg.codec.Heartbeat` carries
  the mark), applied on mailbox delivery, so a write storm flushes
  stale upper levels between searches without any extra round trips.

Under a write-heavy phase the mark advances continuously, every lookup
misses, and the engine behaves exactly as if the cache were absent —
correct, just not faster.  Under the read-mostly phases the cache is
built for, the upper levels pin and each search saves their RTTs.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from ..obs.registry import Counter, MetricsRegistry
from ..rtree.serialize import NodeView

#: ``server_hwm`` value before any meta read / heartbeat hint arrived.
HWM_UNKNOWN = -1


@dataclass(frozen=True)
class NodeCacheConfig:
    """Tunables for the client-side node cache; a deployment without a
    config (``node_cache=None``) runs without a cache.

    ``max_nodes`` bounds client memory; the upper levels of even a
    large tree are small (fanout 64: height-4 holds the whole non-leaf
    structure in a few hundred nodes), so the default comfortably pins
    them while LRU evicts cold subtrees under pressure.
    """

    max_nodes: int = 512

    def __post_init__(self):
        if self.max_nodes < 1:
            raise ValueError(f"max_nodes must be >= 1, got {self.max_nodes}")


class NodeCache:
    """LRU cache of internal node views keyed by chunk id + HWM stamp."""

    def __init__(self, config: Optional[NodeCacheConfig] = None):
        self.config = config if config is not None else NodeCacheConfig()
        #: chunk_id -> (view, hwm stamp at fetch time), LRU-ordered.
        self._entries: "OrderedDict[int, Tuple[NodeView, int]]" = (
            OrderedDict()
        )
        #: Latest tree-wide mutation high-water mark this client knows.
        self.server_hwm = HWM_UNKNOWN
        self.hits = Counter("cache.hits")
        self.misses = Counter("cache.misses")
        self.invalidations = Counter("cache.invalidations")
        self.coalesced_reads = Counter("cache.coalesced_reads")
        self.stores = Counter("cache.stores")
        self.evictions = Counter("cache.evictions")
        self.hint_flushes = Counter("cache.hint_flushes")

    def __len__(self) -> int:
        return len(self._entries)

    # -- high-water-mark tracking -----------------------------------------

    def note_server_hwm(self, hwm: int) -> bool:
        """Learn the server's mutation mark; True if it advanced.

        Advancing the mark invalidates every entry stamped under an
        older one (they may describe a pre-mutation tree).  Fed by both
        meta reads (exact, per search) and heartbeat hints (push,
        between searches).
        """
        if hwm <= self.server_hwm:
            return False
        self.server_hwm = hwm
        if self._entries:
            stale = [cid for cid, (_v, stamp) in self._entries.items()
                     if stamp != hwm]
            for cid in stale:
                del self._entries[cid]
            self.invalidations += len(stale)
        return True

    def apply_hint(self, hwm: int) -> None:
        """A heartbeat-piggybacked invalidation hint (mailbox delivery)."""
        if self.note_server_hwm(hwm):
            self.hint_flushes += 1

    # -- lookup / store -----------------------------------------------------

    def lookup(self, chunk_id: int) -> Optional[NodeView]:
        """The cached view of ``chunk_id``, or None (counted) on a miss.

        Only entries stamped with the *current* high-water mark are
        served; a stale stamp means a mutation intervened and the view
        can no longer stand in for a fresh read.
        """
        entry = self._entries.get(chunk_id)
        if entry is None:
            self.misses += 1
            return None
        view, stamp = entry
        if stamp != self.server_hwm:
            del self._entries[chunk_id]
            self.invalidations += 1
            self.misses += 1
            return None
        self._entries.move_to_end(chunk_id)
        self.hits += 1
        return view

    def store(self, view: NodeView, stamp: Optional[int] = None) -> bool:
        """Cache a validated *internal* view; True if stored.

        Leaves are never cached (every hit's traversal re-reads and
        re-validates its leaves — the safety net), and nothing is
        stored before the first high-water mark is known: an unstamped
        entry could not be invalidated correctly.

        ``stamp`` is the high-water mark the fetcher knew *before
        posting* its read; if the mark moved while the read was in
        flight the view may describe a pre-mutation tree, so it is not
        cached at all rather than mis-stamped as current.
        """
        if stamp is None:
            stamp = self.server_hwm
        if view.is_leaf or view.torn or stamp == HWM_UNKNOWN:
            return False
        if stamp != self.server_hwm:
            return False
        self._entries[view.chunk_id] = (view, self.server_hwm)
        self._entries.move_to_end(view.chunk_id)
        if len(self._entries) > self.config.max_nodes:
            self._entries.popitem(last=False)
            self.evictions += 1
        self.stores += 1
        return True

    # -- metrics -------------------------------------------------------------

    def register_metrics(self, registry: MetricsRegistry,
                         prefix: str = "cache") -> None:
        """Adopt the cache counters into ``registry``."""
        registry.adopt(f"{prefix}.hits", self.hits)
        registry.adopt(f"{prefix}.misses", self.misses)
        registry.adopt(f"{prefix}.invalidations", self.invalidations)
        registry.adopt(f"{prefix}.coalesced_reads", self.coalesced_reads)
        registry.adopt(f"{prefix}.stores", self.stores)
        registry.adopt(f"{prefix}.evictions", self.evictions)
        registry.adopt(f"{prefix}.hint_flushes", self.hint_flushes)
        registry.expose(f"{prefix}.resident_nodes", lambda: len(self))
        registry.expose(f"{prefix}.server_hwm", lambda: self.server_hwm)
