"""Tests for workload and dataset generators."""

import hashlib
import math
import random

import pytest

from repro.client.base import OP_INSERT, OP_SEARCH
from repro.rtree import Rect, bulk_load
from repro.workloads import (
    FixedScale,
    PowerLawScale,
    generate_rea02,
    generate_rea02_queries,
    make_workload,
    power_law_sample,
    scale_generator,
    search_stream,
    skewed_insert_center,
    skewed_insert_rect,
    uniform_dataset,
    uniform_scale_rect,
    write_mix,
)


class TestScales:
    def test_uniform_scale_bounds(self):
        rng = random.Random(0)
        for _ in range(500):
            r = uniform_scale_rect(rng, 0.01)
            assert 0 <= r.width <= 0.01
            assert 0 <= r.height <= 0.01
            assert 0 <= r.minx and r.maxx <= 1
            assert 0 <= r.miny and r.maxy <= 1

    def test_uniform_scale_validation(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            uniform_scale_rect(rng, 0.0)
        with pytest.raises(ValueError):
            uniform_scale_rect(rng, 1.5)

    def test_power_law_within_bounds(self):
        rng = random.Random(1)
        for _ in range(1000):
            t = power_law_sample(rng, 1e-5, 1e-2)
            assert 1e-5 <= t <= 1e-2

    def test_power_law_skews_small(self):
        """With alpha=0.99 most of the mass sits at small scales (log-
        uniform-ish): the median is far below the arithmetic midpoint."""
        rng = random.Random(2)
        samples = sorted(power_law_sample(rng, 1e-5, 1e-2)
                         for _ in range(4000))
        median = samples[len(samples) // 2]
        assert median < 1e-3  # midpoint would be ~5e-3

    def test_power_law_validation(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            power_law_sample(rng, 1e-2, 1e-5)

    def test_scale_generator_parsing(self):
        assert isinstance(scale_generator("0.00001"), FixedScale)
        assert isinstance(scale_generator("powerlaw"), PowerLawScale)
        assert scale_generator("0.01").scale == 0.01

    def test_generators_produce_rects(self):
        rng = random.Random(3)
        for gen in (FixedScale(0.001), PowerLawScale()):
            r = gen.next_rect(rng)
            assert isinstance(r, Rect)


class TestDatasets:
    def test_uniform_dataset_shape(self):
        items = uniform_dataset(100, seed=1)
        assert len(items) == 100
        assert [i for _r, i in items] == list(range(100))
        for r, _i in items:
            assert r.width <= 1e-4 and r.height <= 1e-4

    def test_uniform_dataset_reproducible(self):
        assert uniform_dataset(50, seed=5) == uniform_dataset(50, seed=5)
        assert uniform_dataset(50, seed=5) != uniform_dataset(50, seed=6)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            uniform_dataset(-1)

    def test_skewed_centers_cover_all_quadrants(self):
        rng = random.Random(7)
        quadrants = set()
        for _ in range(500):
            x, y = skewed_insert_center(rng)
            assert 0 <= x <= 1 and 0 <= y <= 1
            quadrants.add((x > 0.5, y > 0.5))
        assert len(quadrants) == 4

    def test_skewed_center_marginal_matches_power_law(self):
        """The paper draws t from f(t) ∝ t^-0.99 on (0.5, 1]; with that
        exponent P(t < 0.75) ≈ 58% (mildly skewed toward 0.5)."""
        rng = random.Random(9)
        n = 6000
        below = 0
        for _ in range(n):
            x, _y = skewed_insert_center(rng)
            t = x if x > 0.5 else 1.0 - x  # undo the reflection
            if t < 0.75:
                below += 1
        expected = (0.75 ** 0.01 - 0.5 ** 0.01) / (1.0 - 0.5 ** 0.01)
        assert below / n == pytest.approx(expected, abs=0.03)

    def test_skewed_insert_rect_in_bounds(self):
        rng = random.Random(8)
        for _ in range(500):
            r = skewed_insert_rect(rng, 0.01)
            assert 0 <= r.minx and r.maxx <= 1
            assert 0 <= r.miny and r.maxy <= 1


class TestRea02:
    def test_size_and_ids(self):
        items = generate_rea02(n=50_000, seed=1)
        assert len(items) == 50_000
        assert sorted(i for _r, i in items) == list(range(50_000))

    def test_rects_in_unit_square(self):
        items = generate_rea02(n=10_000, seed=2)
        for r, _i in items:
            assert 0 <= r.minx and r.maxx <= 1
            assert 0 <= r.miny and r.maxy <= 1

    def test_street_segments_are_thin(self):
        items = generate_rea02(n=5_000, seed=3)
        thin = sum(
            1 for r, _i in items
            if min(r.width, r.height) < 0.25 * max(r.width, r.height, 1e-12)
        )
        assert thin / len(items) > 0.9

    def test_insertion_order_is_locally_correlated(self):
        """Consecutive inserts inside a sub-region are spatially close;
        region boundaries cause jumps."""
        sub = 1000
        items = generate_rea02(n=10 * sub, subregion_objects=sub, seed=4)
        consecutive = []
        for (a, _), (b, _) in zip(items, items[1:]):
            (ax, ay), (bx, by) = a.center(), b.center()
            consecutive.append(math.hypot(ax - bx, ay - by))
        rng = random.Random(11)
        shuffled = []
        for _ in range(len(consecutive)):
            (a, _), (b, _) = rng.choice(items), rng.choice(items)
            (ax, ay), (bx, by) = a.center(), b.center()
            shuffled.append(math.hypot(ax - bx, ay - by))
        consecutive.sort()
        shuffled.sort()
        median_consecutive = consecutive[len(consecutive) // 2]
        median_random = shuffled[len(shuffled) // 2]
        # insertion order walks the space locally
        assert median_consecutive < median_random / 5

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_rea02(n=0)
        with pytest.raises(ValueError):
            generate_rea02(n=100, subregion_objects=2)
        with pytest.raises(ValueError):
            generate_rea02_queries(-1)

    def test_queries_return_50_to_150(self):
        n = 40_000
        items = generate_rea02(n=n, seed=5)
        tree = bulk_load(items, max_entries=32)
        queries = generate_rea02_queries(40, dataset_size=n, seed=6)
        counts = [tree.search(q).count for q in queries]
        mean = sum(counts) / len(counts)
        # the paper: 50-150 results, average ~100.  Allow generator slack.
        assert 40 <= mean <= 220
        assert sum(1 for c in counts if c > 0) == len(counts)


def hybrid_mix(rng, n_requests, client_id, **fractions):
    """A write mix with searches and inserts at scale 0.001."""
    gen = FixedScale(0.001)
    return write_mix(rng, gen, gen.next_rect, n_requests, client_id,
                     **fractions)


class TestMixes:
    def test_search_only(self):
        rng = random.Random(1)
        reqs = search_stream(rng, FixedScale(0.001).next_rect, 50)
        assert len(reqs) == 50
        assert all(r.op == OP_SEARCH for r in reqs)

    def test_hybrid_fraction(self):
        rng = random.Random(2)
        reqs = hybrid_mix(rng, 2000, client_id=3, insert_fraction=0.1)
        inserts = [r for r in reqs if r.op == OP_INSERT]
        assert 0.05 < len(inserts) / len(reqs) < 0.15
        ids = [r.data_id for r in inserts]
        assert len(ids) == len(set(ids))

    def test_hybrid_ids_disjoint_across_clients(self):
        rng1, rng2 = random.Random(3), random.Random(3)
        a = hybrid_mix(rng1, 500, client_id=1)
        b = hybrid_mix(rng2, 500, client_id=2)
        ids_a = {r.data_id for r in a if r.op == OP_INSERT}
        ids_b = {r.data_id for r in b if r.op == OP_INSERT}
        assert not ids_a & ids_b

    def test_hybrid_fraction_validation(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            hybrid_mix(rng, 10, 0, insert_fraction=1.5)

    def test_make_workload_kinds(self):
        search_fn = make_workload("search", scale_spec="0.01", n_requests=10)
        reqs = search_fn(0, random.Random(0))
        assert len(reqs) == 10

        hybrid_fn = make_workload("hybrid", scale_spec="0.01", n_requests=10)
        assert len(hybrid_fn(0, random.Random(0))) == 10

        queries = [Rect(0, 0, 0.1, 0.1)]
        query_fn = make_workload("queries", n_requests=5, queries=queries)
        reqs = query_fn(0, random.Random(0))
        assert all(r.rect == queries[0] for r in reqs)

    def test_make_workload_unknown_kind(self):
        with pytest.raises(ValueError):
            make_workload("scan")

    def test_query_stream_empty_rejected(self):
        from repro.workloads import query_stream
        with pytest.raises(ValueError):
            query_stream([], random.Random(0), 5)


def _stream_digest(requests) -> str:
    """A digest of a request stream, exact to the last float bit."""
    h = hashlib.sha256()
    for r in requests:
        rects = [r.rect] + ([r.new_rect] if r.new_rect is not None else [])
        h.update(repr((
            r.op, r.data_id, r.k,
            [(q.minx.hex(), q.miny.hex(), q.maxx.hex(), q.maxy.hex())
             for q in rects],
        )).encode())
    return h.hexdigest()[:16]


#: (kind, scale spec) -> digests of ``make_workload(kind, ...)(client, rng)``
#: for (seed, client) in STREAM_CASES.  A change to any mix's draw order,
#: draw count or arithmetic moves a digest.
STREAM_CASES = ((3, 0), (3, 5), (7, 0), (7, 5))
STREAM_DIGESTS = {
    ("search", "powerlaw"): ("04830af9239472ac", "04830af9239472ac",
                             "731c58058820a553", "731c58058820a553"),
    ("search-skewed", "0.001"): ("e99add8203900de8", "e99add8203900de8",
                                 "ea9110408367ee90", "ea9110408367ee90"),
    ("hybrid", "powerlaw"): ("606bb2f4e8a3f004", "6dd30c9e6f763ede",
                             "3e613fd1b4641dea", "e51586c544ed001e"),
    ("hybrid-skewed", "0.001"): ("863b0f1b786cc058", "159da60bc2b3bb7c",
                                 "6382a79435595419", "d4306a6f7abb44fc"),
    ("churn", "0.001"): ("550191404f11bf3c", "b38c12763ae78aa2",
                         "9f397c431feea807", "3481e28f2a6bef4b"),
    ("mixed", "0.02"): ("5b415068e7f796e8", "5b415068e7f796e8",
                        "4f1bfd99ca5a4524", "4f1bfd99ca5a4524"),
    ("queries", "0.00001"): ("8f619794ecca880b", "8f619794ecca880b",
                             "6742798cd106a2e7", "6742798cd106a2e7"),
}


class TestStreamDigests:
    @pytest.mark.parametrize("kind,scale", sorted(STREAM_DIGESTS))
    def test_stream_is_pinned(self, kind, scale):
        queries = [Rect(i / 10, i / 20, i / 10 + 0.05, i / 20 + 0.05)
                   for i in range(7)]
        workload = make_workload(kind, scale_spec=scale, n_requests=300,
                                 insert_fraction=0.2, queries=queries)
        digests = tuple(
            _stream_digest(workload(client_id, random.Random(seed)))
            for seed, client_id in STREAM_CASES)
        assert digests == STREAM_DIGESTS[kind, scale]
