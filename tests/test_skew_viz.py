"""Tests for the Zipf/hotspot skew generators."""

import random
from collections import Counter

import pytest

from repro import ExperimentConfig, run_experiment
from repro.workloads.scales import FixedScale
from repro.workloads.skew import (
    HOTSPOT_SPREAD,
    N_HOTSPOTS,
    HotspotQueries,
    ZipfSampler,
    zipf_sample,
    zipf_weights,
)


class TestZipf:
    def test_weights_normalized_and_decreasing(self):
        w = zipf_weights(10, s=1.0)
        assert sum(w) == pytest.approx(1.0)
        assert w == sorted(w, reverse=True)

    def test_s_zero_is_uniform(self):
        w = zipf_weights(5, s=0.0)
        assert all(x == pytest.approx(0.2) for x in w)

    def test_validation(self):
        with pytest.raises(ValueError):
            zipf_weights(0)
        with pytest.raises(ValueError):
            zipf_weights(5, s=-1)

    def test_sampler_prefers_low_ranks(self):
        sampler = ZipfSampler(20, s=1.0)
        rng = random.Random(1)
        counts = Counter(sampler.sample(rng) for _ in range(5000))
        assert counts[0] > counts[10] > 0
        # rank-0 share under Zipf(1, n=20) is 1/H_20 ~ 0.278
        assert 0.2 < counts[0] / 5000 < 0.36

    def test_samples_within_range(self):
        rng = random.Random(2)
        for _ in range(200):
            assert 0 <= zipf_sample(rng, 7, 1.2) < 7


class TestHotspots:
    def test_rects_in_unit_square(self):
        hotspots = HotspotQueries(seed=3)
        rng = random.Random(4)
        gen = FixedScale(0.01)
        for _ in range(300):
            r = hotspots.next_rect(rng, gen)
            assert 0 <= r.minx and r.maxx <= 1
            assert 0 <= r.miny and r.maxy <= 1
            assert r.width <= 0.011

    def test_queries_cluster(self):
        """Most queries land near some hotspot (within a few spreads)."""
        hotspots = HotspotQueries(seed=5)
        rng = random.Random(6)
        gen = FixedScale(0.001)
        near = 0
        for _ in range(500):
            r = hotspots.next_rect(rng, gen)
            cx, cy = r.center()
            d2 = min((cx - hx) ** 2 + (cy - hy) ** 2
                     for hx, hy in hotspots.hotspots)
            if d2 < (4 * HOTSPOT_SPREAD) ** 2:
                near += 1
        assert near / 500 > 0.9

    def test_top_hotspot_dominates(self):
        hotspots = HotspotQueries(seed=7)
        rng = random.Random(8)
        gen = FixedScale(0.0001)
        hits = Counter()
        for _ in range(2000):
            r = hotspots.next_rect(rng, gen)
            cx, cy = r.center()
            nearest = min(
                range(N_HOTSPOTS),
                key=lambda i: (cx - hotspots.hotspots[i][0]) ** 2
                + (cy - hotspots.hotspots[i][1]) ** 2,
            )
            hits[nearest] += 1
        top_two = sum(c for _i, c in hits.most_common(2))
        assert top_two / 2000 > 0.4

    def test_validation(self):
        """The hotspot constants stay in the range a hotspot set needs."""
        assert N_HOTSPOTS >= 1 and HOTSPOT_SPREAD > 0
        assert len(HotspotQueries(seed=1).hotspots) == N_HOTSPOTS

    def test_skewed_hybrid_experiment_runs(self):
        result = run_experiment(ExperimentConfig(
            scheme="catfish",
            workload_kind="hybrid-skewed",
            n_clients=4,
            requests_per_client=50,
            dataset_size=1500,
            max_entries=16,
            server_cores=4,
            seed=9,
        ))
        assert result.total_requests == 200
        assert result.inserts_served > 0

