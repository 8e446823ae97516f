"""The metrics registry: gauges and histograms.

Every component of the reproduction (server, clients, offload engine,
heartbeat service, ring buffers, transport) registers what it counts
here so one :meth:`MetricsRegistry.snapshot` call captures the whole
system — the substrate the benchmark JSON artifacts are built from.

Design constraints:

* **No wall-clock calls.**  Every metric reads simulation state, so
  metrics are deterministic and reproducible for a given seed.
* **A count is an int.**  Components keep plain ``int`` fields
  (``stats.torn_retries += 1``) and the registry reads them one way:
  :func:`expose_fields` registers each field as a pull gauge summed over
  a live list of owners, so the hot path pays for an ``int`` add and
  nothing else.
* **Bounded memory.**  Histograms are HDR-style log-linear buckets (a few
  hundred buckets regardless of sample count).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Any, Callable, Dict, Sequence, Tuple


class Counter:
    """A named count object the registry can :meth:`~MetricsRegistry.adopt`.

    No model component uses one (they keep ints and register them with
    :func:`expose_fields`); it is kept for code that hands the registry
    an object it goes on adding to in place with ``+=``.
    """

    kind = "counter"
    __slots__ = ("name", "_value")

    def __init__(self, name: str = ""):
        self.name = name
        self._value = 0

    def __iadd__(self, amount: int) -> "Counter":
        self._value += amount
        return self

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self._value}


class Gauge:
    """A point-in-time value, pulled from ``fn`` on every snapshot.

    This is how every component attribute (a count, a ring watermark, a
    QP byte count, a CPU utilization) joins the registry without the
    component knowing about it.
    """

    kind = "gauge"
    __slots__ = ("name", "_fn")

    def __init__(self, name: str, fn: Callable[[], float]):
        self.name = name
        self._fn = fn

    def get(self) -> float:
        return self._fn()

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self.get()}

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self.get()})"


#: Linear sub-buckets per power of two; bounds the relative quantile
#: error at 1/SUB_BUCKETS (~3%) with a few hundred buckets total.
SUB_BUCKETS = 32


class Histogram:
    """HDR-style log-linear histogram with bounded memory.

    Values land in ``(exponent, sub_bucket)`` cells: the exponent is the
    power of two of the value, each octave split into :data:`SUB_BUCKETS`
    linear cells.  Percentiles come from a cumulative walk over the sorted
    cells, reporting each cell's midpoint — the classic HDR trade: exact
    counts, ~3% value resolution, O(1) record, O(buckets) memory no matter
    how many samples are recorded.
    """

    kind = "histogram"
    __slots__ = ("name", "help", "unit", "_cells", "count", "_sum",
                 "minimum", "maximum", "_zero")

    def __init__(self, name: str = "", help: str = "", unit: str = ""):
        self.name = name
        self.help = help
        #: Human label for the recorded unit ("seconds", "us", "bytes").
        self.unit = unit
        self._cells: Dict[Tuple[int, int], int] = {}
        self._zero = 0  # samples <= 0 get their own bucket
        self.count = 0
        self._sum = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    @staticmethod
    def _cell_of(value: float) -> Tuple[int, int]:
        mantissa, exponent = math.frexp(value)  # mantissa in [0.5, 1)
        sub = int((mantissa * 2.0 - 1.0) * SUB_BUCKETS)  # [0, SUB_BUCKETS)
        return exponent, min(sub, SUB_BUCKETS - 1)

    @staticmethod
    def _cell_midpoint(cell: Tuple[int, int]) -> float:
        exponent, sub = cell
        low = 0.5 * (1.0 + sub / SUB_BUCKETS)
        high = 0.5 * (1.0 + (sub + 1) / SUB_BUCKETS)
        return math.ldexp((low + high) / 2.0, exponent)

    def record(self, value: float) -> None:
        self.count += 1
        self._sum += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if value <= 0.0:
            self._zero += 1
            return
        cell = self._cell_of(value)
        self._cells[cell] = self._cells.get(cell, 0) + 1

    @property
    def mean(self) -> float:
        return self._sum / self.count if self.count else math.nan

    @property
    def n_buckets(self) -> int:
        return len(self._cells) + (1 if self._zero else 0)

    def percentile(self, p: float) -> float:
        """Approximate percentile, ``p`` in [0, 100]; NaN when empty."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile {p} outside [0, 100]")
        if self.count == 0:
            return math.nan
        if p == 0.0:
            return self.minimum
        target = p / 100.0 * self.count
        seen = self._zero
        if seen >= target and self._zero:
            return min(self.minimum, 0.0)
        for cell in sorted(self._cells):
            seen += self._cells[cell]
            if seen >= target:
                # Clamp to the observed extremes so p0/p100 are exact.
                mid = self._cell_midpoint(cell)
                return min(max(mid, self.minimum), self.maximum)
        return self.maximum

    def snapshot(self) -> Dict[str, Any]:
        return {
            "type": "histogram",
            "unit": self.unit,
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum if self.count else math.nan,
            "max": self.maximum if self.count else math.nan,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "p999": self.percentile(99.9),
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count})"


class LatencyView:
    """Adapter exposing an exact :class:`~repro.sim.monitor.LatencyRecorder`
    through the histogram snapshot schema (optionally rescaled, e.g.
    seconds -> microseconds)."""

    kind = "histogram"
    __slots__ = ("name", "recorder", "scale", "unit", "loop")

    def __init__(self, recorder, scale: float = 1.0, unit: str = "",
                 name: str = "", loop: str = ""):
        self.name = name
        self.recorder = recorder
        self.scale = scale
        self.unit = unit
        # Measurement methodology tag: "closed" (synchronous drivers —
        # subject to coordinated omission) or "open" (arrival-clocked).
        self.loop = loop

    def snapshot(self) -> Dict[str, Any]:
        rec = self.recorder
        empty = rec.count == 0
        snap = {
            "type": "histogram",
            "unit": self.unit,
            "count": rec.count,
            "mean": rec.mean * self.scale,
            "min": (min(rec.samples) * self.scale) if not empty else math.nan,
            "max": (max(rec.samples) * self.scale) if not empty else math.nan,
            "p50": rec.percentile(50) * self.scale,
            "p95": rec.percentile(95) * self.scale,
            "p99": rec.percentile(99) * self.scale,
            "p999": rec.percentile(99.9) * self.scale,
        }
        if self.loop:
            snap["loop"] = self.loop
        return snap


class MetricsRegistry:
    """Name -> metric map with get-or-create factories.

    Names are dotted paths (``server.requests_handled``,
    ``client.latency_us``); the registry itself imposes no hierarchy
    beyond what the names spell out.
    """

    def __init__(self) -> None:
        self._metrics: "OrderedDict[str, Any]" = OrderedDict()

    # -- factories ---------------------------------------------------------

    def _get_or_create(self, name: str, factory, expected_kind: str):
        existing = self._metrics.get(name)
        if existing is not None:
            if getattr(existing, "kind", None) != expected_kind:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{getattr(existing, 'kind', type(existing).__name__)!r}"
                )
            return existing
        metric = factory()
        self._metrics[name] = metric
        return metric

    def expose(self, name: str, fn: Callable[[], float]) -> Gauge:
        """Register a pull gauge over an existing attribute."""
        return self._get_or_create(name, lambda: Gauge(name, fn), "gauge")

    def histogram(self, name: str, help: str = "",
                  unit: str = "") -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(name, help, unit=unit), "histogram"
        )

    # -- adoption ----------------------------------------------------------

    def adopt(self, name: str, metric) -> Any:
        """Register an externally owned metric (anything with
        ``snapshot()``) under ``name``; the owner keeps mutating it."""
        if not hasattr(metric, "snapshot"):
            raise TypeError(
                f"{type(metric).__name__} has no snapshot(); cannot adopt"
            )
        existing = self._metrics.get(name)
        if existing is not None and existing is not metric:
            raise ValueError(f"metric {name!r} already registered")
        if getattr(metric, "name", None) in ("", None):
            try:
                metric.name = name
            except AttributeError:
                pass
        self._metrics[name] = metric
        return metric

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """One JSON-ready dict capturing every registered metric now."""
        return {name: metric.snapshot()
                for name, metric in self._metrics.items()}


def expose_fields(registry: MetricsRegistry, prefix: str,
                  objects: Sequence[Any], fields: Sequence[str]) -> None:
    """Register ``prefix.<field>`` for each of ``fields``: the sum of that
    int attribute over ``objects``.

    ``objects`` is read on every snapshot, not copied, so an object
    appended to a live list after registration is counted too.
    """
    for field in fields:
        registry.expose(
            f"{prefix}.{field}",
            lambda f=field: sum(getattr(o, f) for o in objects),
        )
