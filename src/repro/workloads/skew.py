"""Skewed spatial access patterns.

The paper's introduction notes that its bottlenecks "will be further
aggravated by skew access patterns in real workloads [4]" (Iyer & Stoica's
IoT spatial index).  This module provides the two skew generators used by
the skew ablation:

* :func:`zipf_sample` — classic Zipf popularity over ``n`` ranks;
* :class:`HotspotQueries` — query centres clustered on Zipf-popular
  hotspots, so a few regions of the tree absorb most of the load (and
  collide with the corner-skewed insert stream of the hybrid workloads).
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import List, Tuple

from ..rtree.geometry import Rect


def zipf_weights(n: int, s: float = 1.0) -> List[float]:
    """Normalized Zipf weights for ranks 1..n."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if s < 0:
        raise ValueError(f"need s >= 0, got {s}")
    raw = [1.0 / (rank ** s) for rank in range(1, n + 1)]
    total = sum(raw)
    return [w / total for w in raw]


class ZipfSampler:
    """Inverse-CDF sampling from a Zipf distribution over n ranks."""

    def __init__(self, n: int, s: float = 1.0):
        self.n = n
        self.s = s
        weights = zipf_weights(n, s)
        self._cdf = list(itertools.accumulate(weights))
        self._cdf[-1] = 1.0  # guard against float drift

    def sample(self, rng: random.Random) -> int:
        """A rank in [0, n), rank 0 most popular."""
        return bisect.bisect_left(self._cdf, rng.random())


def zipf_sample(rng: random.Random, n: int, s: float = 1.0) -> int:
    """One-shot convenience wrapper around :class:`ZipfSampler`."""
    return ZipfSampler(n, s).sample(rng)


#: :class:`HotspotQueries` places this many hotspots, ranks their
#: popularity by a Zipf law of this exponent, and scatters a query centre
#: around its hotspot with this standard deviation (unit-square units).
N_HOTSPOTS = 16
HOTSPOT_ZIPF_S = 1.0
HOTSPOT_SPREAD = 0.02


class HotspotQueries:
    """Query rectangles clustered around Zipf-popular hotspots; ``seed``
    places the hotspots."""

    def __init__(self, seed: int = 0):
        placement = random.Random(seed)
        self.hotspots: List[Tuple[float, float]] = [
            (placement.random(), placement.random())
            for _ in range(N_HOTSPOTS)
        ]
        self.sampler = ZipfSampler(N_HOTSPOTS, HOTSPOT_ZIPF_S)

    def next_center(self, rng: random.Random) -> Tuple[float, float]:
        hx, hy = self.hotspots[self.sampler.sample(rng)]
        x = min(max(rng.gauss(hx, HOTSPOT_SPREAD), 0.0), 1.0)
        y = min(max(rng.gauss(hy, HOTSPOT_SPREAD), 0.0), 1.0)
        return x, y

    def next_rect(self, rng: random.Random, scale_gen) -> Rect:
        """A query rect sized by ``scale_gen`` centred on a hotspot."""
        template = scale_gen.next_rect(rng)
        w, h = template.width, template.height
        cx, cy = self.next_center(rng)
        minx = min(max(cx - w / 2, 0.0), 1.0 - w)
        miny = min(max(cy - h / 2, 0.0), 1.0 - h)
        return Rect(minx, miny, minx + w, miny + h)
