"""Cross-cutting property-based tests on core invariants."""

import random

from hypothesis import given, settings, strategies as st

from repro.msg import (
    MSG_HEADER_SIZE,
    RingBuffer,
    SearchRequest,
    message_size,
)
from repro.rtree import Rect, RStarTree, bulk_load
from repro.sim import Simulator

from .rstar_reference import search_via_rects


class _SizedMsg:
    """A message with an arbitrary payload size."""

    def __init__(self, tag, size):
        self.tag = tag
        self._size = size

    def payload_size(self):
        return self._size


class TestRingBufferProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 2000), min_size=1, max_size=60),
           st.integers(2100, 8192))
    def test_fifo_and_byte_conservation(self, sizes, capacity):
        """Any message-size sequence: FIFO order holds, all space returns."""
        sim = Simulator()
        ring = RingBuffer(sim, capacity=capacity)
        received = []

        def sender():
            for i, size in enumerate(sizes):
                msg = _SizedMsg(i, size)
                yield from ring.reserve(msg)
                ring.deposit(msg)

        def receiver():
            for _ in sizes:
                msg = yield ring.consume()
                received.append(msg.tag)

        sim.process(sender())
        sim.process(receiver())
        sim.run()
        assert received == list(range(len(sizes)))
        assert ring.free_bytes == capacity
        assert ring.bytes_sent == sum(s + MSG_HEADER_SIZE for s in sizes)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 20), st.integers(0, 10**6))
    def test_backpressure_never_loses_messages(self, n_messages, seed):
        """A ring that fits ~2 messages still delivers everything."""
        sim = Simulator()
        msg_footprint = message_size(SearchRequest(0, Rect(0, 0, 1, 1)))
        ring = RingBuffer(sim, capacity=2 * msg_footprint + 1)
        rng = random.Random(seed)
        received = []

        def sender():
            for i in range(n_messages):
                msg = SearchRequest(i, Rect(0, 0, 1, 1))
                yield from ring.reserve(msg)
                ring.deposit(msg)

        def receiver():
            for _ in range(n_messages):
                yield sim.timeout(rng.uniform(0, 5e-6))
                msg = yield ring.consume()
                received.append(msg.req_id)

        sim.process(sender())
        sim.process(receiver())
        sim.run()
        assert received == list(range(n_messages))


class TestTreeEquivalenceProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6), st.integers(10, 300))
    def test_str_and_rstar_answer_identically(self, seed, n):
        """Bulk-loaded and incrementally built trees are interchangeable."""
        rng = random.Random(seed)
        items = []
        for i in range(n):
            x, y = rng.uniform(0, 0.99), rng.uniform(0, 0.99)
            s = rng.uniform(0, 0.01)
            items.append((Rect(x, y, x + s, y + s), i))
        str_tree = bulk_load(items, max_entries=8)
        rstar = RStarTree(max_entries=8)
        for rect, i in items:
            rstar.insert(rect, i)
        for _ in range(10):
            qx, qy = rng.uniform(0, 0.9), rng.uniform(0, 0.9)
            qs = rng.uniform(0, 0.2)
            query = Rect(qx, qy, qx + qs, qy + qs)
            assert (sorted(str_tree.search(query).data_ids)
                    == sorted(rstar.search(query).data_ids))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_search_is_stable_under_reinsertion(self, seed):
        """Deleting and re-inserting the same data leaves answers intact."""
        rng = random.Random(seed)
        items = []
        for i in range(80):
            x, y = rng.uniform(0, 0.99), rng.uniform(0, 0.99)
            s = rng.uniform(0, 0.01)
            items.append((Rect(x, y, x + s, y + s), i))
        tree = RStarTree(max_entries=6)
        for rect, i in items:
            tree.insert(rect, i)
        query = Rect(0, 0, 1, 1)
        before = sorted(tree.search(query).data_ids)
        for rect, i in items[:40]:
            assert tree.delete(rect, i).ok
        for rect, i in items[:40]:
            tree.insert(rect, i)
        tree.validate()
        assert sorted(tree.search(query).data_ids) == before


class TestSimulatorProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.floats(0, 100, allow_nan=False),
                              st.integers(0, 999)),
                    min_size=1, max_size=50))
    def test_events_fire_in_time_order(self, schedule):
        sim = Simulator()
        fired = []

        def waiter(delay, tag):
            yield sim.timeout(delay)
            fired.append((sim.now, tag))

        for delay, tag in schedule:
            sim.process(waiter(delay, tag))
        sim.run()
        times = [t for t, _tag in fired]
        assert times == sorted(times)
        assert len(fired) == len(schedule)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6))
    def test_simulation_is_deterministic(self, seed):
        """Same seed, same program -> bit-identical event history."""
        def run_once():
            sim = Simulator()
            rng = random.Random(seed)
            log = []

            def worker(tag):
                for _ in range(5):
                    yield sim.timeout(rng.uniform(0, 1))
                    log.append((sim.now, tag))

            for tag in range(4):
                sim.process(worker(tag))
            sim.run()
            return log

        assert run_once() == run_once()


def _rects(draw_floats):
    """Strategy for valid Rects from two corner points."""
    return st.builds(
        lambda x1, y1, x2, y2: Rect(min(x1, x2), min(y1, y2),
                                    max(x1, x2), max(y1, y2)),
        draw_floats, draw_floats, draw_floats, draw_floats,
    )


class TestFlatScanEquivalence:
    """The flat-coordinate scan kernels must be byte-identical to the
    per-entry ``Rect.intersects`` reference paths."""

    _coord = st.floats(0.0, 1.0, allow_nan=False, width=32)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(_rects(_coord), min_size=1, max_size=120),
        st.lists(st.integers(0, 119), max_size=30),
        st.lists(_rects(_coord), min_size=1, max_size=8),
    )
    def test_tree_search_matches_rect_intersects_oracle(
        self, rects, delete_picks, queries
    ):
        """Random insert/delete schedules, random queries: the optimized
        ``search`` equals the pre-cache ``search_via_rects`` reference loop."""
        from repro.rtree import RStarTree

        tree = RStarTree(max_entries=8)
        live = []
        for i, rect in enumerate(rects):
            tree.insert(rect, i)
            live.append((rect, i))
        for pick in delete_picks:
            if not live:
                break
            rect, data_id = live.pop(pick % len(live))
            tree.delete(rect, data_id)
        for query in queries:
            fast = tree.search(query)
            oracle = search_via_rects(tree, query)
            assert fast.matches == oracle.matches
            assert fast.visited_chunks == oracle.visited_chunks
            assert fast.nodes_visited == oracle.nodes_visited
            assert fast.leaf_nodes_visited == oracle.leaf_nodes_visited

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(_rects(_coord), min_size=1, max_size=64),
        _rects(_coord),
    )
    def test_node_view_flat_scan_matches_intersects(self, rects, query):
        """NodeView.intersecting_refs/entries equal the naive per-entry
        ``Rect.intersects`` scan of the same snapshot."""
        from repro.rtree.serialize import NodeView

        entries = tuple((rect, i) for i, rect in enumerate(rects))
        view = NodeView(level=0, chunk_id=0, entries=entries,
                        version=1, torn=False)
        naive_entries = [e for e in entries if e[0].intersects(query)]
        naive_refs = [ref for rect, ref in entries
                      if rect.intersects(query)]
        assert view.intersecting_entries(query) == naive_entries
        assert view.intersecting_refs(query) == naive_refs

    @settings(max_examples=20, deadline=None)
    @given(st.lists(_rects(_coord), min_size=1, max_size=500),
           _rects(_coord))
    def test_bulk_loaded_tree_search_matches_oracle(self, rects, query):
        tree = bulk_load([(rect, i) for i, rect in enumerate(rects)])
        fast = tree.search(query)
        oracle = search_via_rects(tree, query)
        assert fast.matches == oracle.matches
        assert fast.visited_chunks == oracle.visited_chunks


class TestBatchKernelEquivalence:
    """The vectorized scan kernels and the cross-query batch engine
    must be bit-identical to sequential search under every kernel."""

    _coord = st.floats(0.0, 1.0, allow_nan=False, width=32)

    @staticmethod
    def _per_kernel(run):
        """``[(np_batch, run()), ...]`` for each batch-kernel setting
        the platform has (numpy only when importable), restoring the
        module flag afterwards."""
        from repro.rtree import batch

        saved = batch._np_batch
        out = []
        try:
            for value in (False, True) if batch.HAVE_NUMPY else (False,):
                batch._np_batch = value
                out.append((value, run()))
        finally:
            batch._np_batch = saved
        return out

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(_rects(_coord), min_size=1, max_size=250),
        st.lists(_rects(_coord), min_size=0, max_size=13),
        st.booleans(),
    )
    def test_batch_engine_equals_sequential_oracle(
        self, rects, queries, duplicate_first
    ):
        """Random batch sizes (including empty) and overlapping query
        groups: per-query batched results — matches in order, visited
        chunks, visit counters — equal ``search_via_rects`` on both
        the numpy and the Python batch kernels."""
        from repro.rtree import BatchSearchEngine

        if duplicate_first and queries:
            queries = queries + [queries[0]]  # identical windows share
        tree = bulk_load([(rect, i) for i, rect in enumerate(rects)])
        engine = BatchSearchEngine(tree)
        for np_batch, results in self._per_kernel(
                lambda: engine.search_batch(queries)):
            assert len(results) == len(queries)
            for query, got in zip(queries, results):
                oracle = search_via_rects(tree, query)
                assert got.matches == oracle.matches, np_batch
                assert got.visited_chunks == oracle.visited_chunks, np_batch
                assert got.nodes_visited == oracle.nodes_visited, np_batch
                assert (got.leaf_nodes_visited
                        == oracle.leaf_nodes_visited), np_batch

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(_rects(_coord), min_size=1, max_size=300),
        _rects(_coord),
    )
    def test_vectorized_single_scan_equals_python_loop(self, rects, query):
        """Single-query ``search`` equals the oracle whichever batch
        kernel the platform runs."""
        tree = bulk_load([(rect, i) for i, rect in enumerate(rects)])
        oracle = search_via_rects(tree, query)
        for np_batch, got in self._per_kernel(lambda: tree.search(query)):
            assert got.matches == oracle.matches, np_batch
            assert got.visited_chunks == oracle.visited_chunks, np_batch

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(_rects(_coord), min_size=1, max_size=200),
        st.floats(0.0, 1.0, allow_nan=False, width=32),
        st.floats(0.0, 1.0, allow_nan=False, width=32),
    )
    def test_nearest_agrees_across_kernels(self, rects, x, y):
        """kNN MINDIST pruning returns a nearest rectangle (the brute
        force minimum distance) whichever batch kernel the platform
        runs."""
        tree = bulk_load([(rect, i) for i, rect in enumerate(rects)])
        best = min(rect.min_dist2_point(x, y) for rect in rects)
        for np_batch, got in self._per_kernel(lambda: tree.nearest(x, y)):
            [(rect, data_id)] = got.matches
            assert rects[data_id] == rect, np_batch
            assert rect.min_dist2_point(x, y) == best, np_batch
