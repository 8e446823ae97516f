"""Tests for Zipf/hotspot skew generators and the ASCII viz helpers."""

import random
from collections import Counter

import pytest

from repro import ExperimentConfig, run_experiment
from repro.viz import bar_chart, render_timeline, sparkline
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


class TestViz:
    def test_sparkline_empty(self):
        assert sparkline([]) == ""

    def test_sparkline_flat(self):
        assert sparkline([3, 3, 3]) == "▁▁▁"

    def test_sparkline_ramp(self):
        line = sparkline([0, 0.5, 1.0], 0.0, 1.0)
        assert len(line) == 3
        assert line[0] == "▁"
        assert line[-1] == "█"
        assert line[0] < line[1] < line[2]

    def test_sparkline_respects_pinned_scale(self):
        # values near the middle of a pinned [0, 1] scale
        line = sparkline([0.5], 0.0, 1.0)
        assert line not in ("▁", "█")

    def test_bar_chart(self):
        lines = bar_chart([("catfish", 100.0), ("tcp", 25.0)], width=20)
        assert len(lines) == 2
        assert lines[0].count("#") == 20
        assert 4 <= lines[1].count("#") <= 6
        assert "100.0" in lines[0]

    def test_bar_chart_empty(self):
        assert bar_chart([]) == []

    def test_render_timeline_empty(self):
        assert render_timeline([]) == ["(no timeline collected)"]

    def test_render_timeline_basic(self):
        timeline = [(i * 1e-3, i / 10, 1 - i / 10) for i in range(10)]
        lines = render_timeline(timeline)
        assert len(lines) == 3
        assert "server cpu" in lines[1]
        assert "offload frac" in lines[2]

    def test_render_timeline_downsamples(self):
        timeline = [(i * 1e-3, 0.5, 0.5) for i in range(1000)]
        lines = render_timeline(timeline, max_points=50)
        assert "50 windows" in lines[0]

    def test_cli_timeline_flag(self, capsys):
        from repro.cli import main
        code = main([
            "run", "--scheme", "catfish", "--timeline",
            "--clients", "4", "--requests", "30",
            "--dataset-size", "800", "--server-cores", "2",
            "--heartbeat-ms", "0.1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "server cpu" in out
        assert "offload frac" in out
