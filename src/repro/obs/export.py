"""JSON export of metrics + trace snapshots.

Every benchmark and CLI run emits the same document shape, so runs are
comparable across schemes, presets and PRs::

    {
      "schema": "catfish-metrics/v1",
      "meta": {"scheme": "catfish", "fabric": "ib-100g", ...},
      "metrics": {"<name>": {"type": "counter"|"gauge"|"histogram", ...}},
      "trace": {"total_events": N, "dropped_events": D, "events": [...]}
    }

Latency histograms carry ``count/mean/min/max/p50/p95/p99/p999`` (and a
``loop`` tag — ``"closed"`` or ``"open"`` — when the producer declared
its measurement methodology); non-finite floats are serialized as
``null`` so the artifact is strict JSON.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Optional

SCHEMA = "catfish-metrics/v1"


def _sanitize(value: Any) -> Any:
    """Replace non-finite floats with None, recursively (strict JSON)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    # Integer scalars that are not ``int`` (numpy's, for one).
    if hasattr(value, "__int__"):
        return int(value)
    return repr(value)


def snapshot_document(
    registry,
    tracer=None,
    meta: Optional[Dict[str, Any]] = None,
    trace_limit: Optional[int] = 1000,
) -> Dict[str, Any]:
    """Capture one comparable metrics document (plain dict, JSON-ready)."""
    doc: Dict[str, Any] = {
        "schema": SCHEMA,
        "meta": _sanitize(meta or {}),
        "metrics": _sanitize(registry.snapshot()),
    }
    if tracer is not None and tracer.total_events:
        doc["trace"] = _sanitize(tracer.snapshot(limit=trace_limit))
    return doc


def dumps(document: Dict[str, Any], indent: int = 2) -> str:
    return json.dumps(_sanitize(document), indent=indent, sort_keys=True)


def write_metrics_json(path: str, document: Dict[str, Any]) -> str:
    """Write one document (or a list/dict of documents) to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(document))
        fh.write("\n")
    return path


def load_metrics_json(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
