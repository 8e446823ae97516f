"""The traced host pass: cProfile self time bucketed by ``repro.<package>``.

The spans are the profiler's call/return records at every function
boundary, taken from outside the program (no edits under ``src/``).  A
layer's *self time* is the ``tottime`` of the functions defined in its
package; self time of built-ins and stdlib functions (``heappush``,
``len``, ``random.uniform`` ...) is charged to the package that called
them, through the profiler's ``callers`` table, so a layer pays for the
C-level work it asks for.

Shares are indicative only: cProfile adds a fixed cost to every Python
call and none to work inside C, which inflates call-heavy layers.  Call
counts, by contrast, are exact and repeat bit-for-bit at a fixed seed.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from typing import Callable, Dict, Tuple

#: The layers reported, in report order; everything else is ``other``
#: (top-level ``repro`` modules, unused packages, the harness itself).
PACKAGES = (
    "sim", "hw", "net", "transport", "msg", "rtree", "server", "client",
    "runtime", "shard", "traffic", "obs", "workloads", "cluster", "other",
)

_REPRO_MARK = os.sep + "repro" + os.sep

FuncKey = Tuple[str, int, str]


def package_of(filename: str):
    """``repro.<package>`` of a source file, or None outside ``repro``."""
    at = filename.rfind(_REPRO_MARK)
    if at < 0:
        return None
    rest = filename[at + len(_REPRO_MARK):]
    head, sep, _tail = rest.partition(os.sep)
    if not sep:
        return "other"          # repro/cli.py, repro/viz.py, ...
    return head if head in PACKAGES else "other"


def bucket_stats(stats: Dict[FuncKey, tuple]) -> Dict[str, Dict[str, float]]:
    """Bucket a ``pstats.Stats(...).stats`` table by package.

    Returns ``{package: {"self_s": seconds, "calls": n}}`` over
    :data:`PACKAGES`.  ``self_s`` sums to the table's total ``tottime``;
    ``calls`` counts calls of the package's own functions only (each
    generator resume is one call, which is the cost being counted).
    """
    out = {pkg: {"self_s": 0.0, "calls": 0} for pkg in PACKAGES}
    memo: Dict[FuncKey, Dict[str, float]] = {}

    def owners(func: FuncKey) -> Dict[str, float]:
        """Package shares that pay for ``func``'s self time."""
        pkg = package_of(func[0])
        if pkg is not None:
            return {pkg: 1.0}
        if func in memo:
            return memo[func]
        memo[func] = {"other": 1.0}      # cycle guard while resolving
        callers = stats.get(func, (0, 0, 0.0, 0.0, {}))[4]
        weights = {c: v[2] for c, v in callers.items() if v[2] > 0.0}
        if not weights:                  # no timing split: go by call count
            weights = {c: float(v[1]) for c, v in callers.items() if v[1]}
        total = sum(weights.values())
        if total <= 0.0:
            return memo[func]
        shares: Dict[str, float] = {}
        for caller, weight in weights.items():
            for pkg, part in owners(caller).items():
                shares[pkg] = shares.get(pkg, 0.0) + part * weight / total
        memo[func] = shares
        return shares

    for func, (_cc, ncalls, tottime, _ct, _callers) in stats.items():
        pkg = package_of(func[0])
        if pkg is not None:
            out[pkg]["calls"] += ncalls
        for owner, part in owners(func).items():
            out[owner]["self_s"] += tottime * part
    return out


def profile_call(fn: Callable[[], object]):
    """Run ``fn()`` under cProfile; returns ``(result, buckets)``."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    return result, bucket_stats(pstats.Stats(profiler).stats)


def layer_shares(buckets: Dict[str, Dict[str, float]],
                 requests: int) -> Dict[str, float]:
    """``prof.<pkg>.self_share`` / ``prof.<pkg>.calls_per_req`` metrics."""
    total = sum(b["self_s"] for b in buckets.values())
    metrics = {}
    for pkg in PACKAGES:
        share = buckets[pkg]["self_s"] / total if total > 0.0 else 0.0
        metrics[f"prof.{pkg}.self_share"] = share
        metrics[f"prof.{pkg}.calls_per_req"] = (
            buckets[pkg]["calls"] / requests)
    return metrics
