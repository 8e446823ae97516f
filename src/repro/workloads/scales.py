"""Request-rectangle generators (paper §V-B).

The paper's search workloads are parameterized by a *scale*: the edges of a
requested rectangle are drawn uniformly from ``(0, scale]`` and the
location uniformly such that the rectangle stays inside the unit square.

* scale ``0.00001`` — tiny queries, CPU-intensive ("nearby restaurants");
* scale ``0.01`` — large queries, bandwidth-intensive ("hurricane area");
* power law — scale drawn from ``f(t) ∝ t^-0.99`` over ``(0.00001, 0.01]``,
  skewing heavily toward small scopes (the realistic mix).
"""

from __future__ import annotations

import random

from ..rtree.geometry import Rect

SCALE_SMALL = 1e-5
SCALE_LARGE = 1e-2
POWER_LAW_ALPHA = 0.99


def uniform_scale_rect(rng: random.Random, scale: float) -> Rect:
    """A rectangle with edges in ``(0, scale]`` placed inside [0,1]^2."""
    if not 0 < scale <= 1:
        raise ValueError(f"scale {scale} outside (0, 1]")
    w = rng.uniform(0.0, scale)
    h = rng.uniform(0.0, scale)
    x = rng.uniform(0.0, 1.0 - w)
    y = rng.uniform(0.0, 1.0 - h)
    return Rect(x, y, x + w, y + h)


def power_law_sample(
    rng: random.Random,
    t_min: float = SCALE_SMALL,
    t_max: float = SCALE_LARGE,
) -> float:
    """Draw from the truncated power law ``f(t) ∝ t^-POWER_LAW_ALPHA`` on
    (t_min, t_max], by inverse-CDF sampling."""
    if not 0 < t_min < t_max:
        raise ValueError(f"need 0 < t_min < t_max, got {t_min}, {t_max}")
    u = rng.random()
    exponent = 1.0 - POWER_LAW_ALPHA
    lo = t_min ** exponent
    hi = t_max ** exponent
    return (lo + u * (hi - lo)) ** (1.0 / exponent)


class FixedScale:
    """Every request uses the same scale upper bound."""

    def __init__(self, scale: float):
        if not 0 < scale <= 1:
            raise ValueError(f"scale {scale} outside (0, 1]")
        self.scale = scale

    def next_rect(self, rng: random.Random) -> Rect:
        return uniform_scale_rect(rng, self.scale)

    def __repr__(self) -> str:
        return f"FixedScale({self.scale:g})"


class PowerLawScale:
    """The paper's skewed scale distribution f(t) ∝ t^-0.99."""

    def __init__(self, t_min: float = SCALE_SMALL, t_max: float = SCALE_LARGE):
        if not 0 < t_min < t_max:
            raise ValueError(f"need 0 < t_min < t_max, got {t_min}, {t_max}")
        self.t_min = t_min
        self.t_max = t_max

    def next_rect(self, rng: random.Random) -> Rect:
        scale = power_law_sample(rng, self.t_min, self.t_max)
        return uniform_scale_rect(rng, scale)

    def __repr__(self) -> str:
        return f"PowerLawScale({self.t_min:g}, {self.t_max:g})"


def scale_generator(spec: str):
    """Parse the paper's scale labels.

    Accepts a plain number ('0.00001', '0.01'), 'powerlaw' (the paper's
    bounds), or 'powerlaw:<tmin>:<tmax>' for rescaled runs (the benchmark
    harness shrinks the dataset and rescales query sizes to preserve
    result-set cardinalities).
    """
    if spec == "powerlaw":
        return PowerLawScale()
    if spec.startswith("powerlaw:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad power-law spec {spec!r}")
        return PowerLawScale(t_min=float(parts[1]), t_max=float(parts[2]))
    return FixedScale(float(spec))
