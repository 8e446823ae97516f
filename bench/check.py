#!/usr/bin/env python3
"""Compare two scoreboard result files, metric by metric.

``python3 bench/check.py --against BASE.json [--results NEW.json]``

Both files come from ``bench/run.py`` at the *same seed*, so simulated
metrics are exact and the tight same-seed bounds stored in the file
apply (``BENCHMARK.json`` carries the looser bounds the driver uses
across different seeds).  One row per (workload, end-to-end metric):
both values, the ratio with its base, and a verdict —

``ok``          not worse than the base by more than the bound;
``worse``       worse by more than the bound (exit code 1);
``unresolved``  host metric whose run-to-run spread (quartile distance
                over the median of the rounds) is wider than the bound
                on either side, unless every round of the new file
                reads better than every round of the base.

When both files carry the same commit, every simulated metric must be
bit-identical: a difference means the simulation is not deterministic.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

DEFAULT_RESULTS = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "results", "latest.json")


def _worse_by(base: float, new: float, better: str, kind: str) -> float:
    """How much worse ``new`` is than ``base``, in the bound's terms."""
    delta = (new - base) if better == "lower" else (base - new)
    if kind == "abs":
        return delta
    return delta / abs(base) if base else (0.0 if delta == 0 else
                                           float("inf"))


def _spread(row: dict) -> float:
    if "q1" not in row or not row["median"]:
        return 0.0
    return (row["q3"] - row["q1"]) / abs(row["median"])


def _all_better(base: dict, new: dict, better: str) -> bool:
    if better == "lower":
        return max(new["rounds"]) < min(base["rounds"])
    return min(new["rounds"]) > max(base["rounds"])


def compare(base: dict, new: dict):
    """Yield ``(workload, metric, base, new, ratio, verdict)`` rows."""
    same_commit = bool(base.get("commit")) and (
        base.get("commit") == new.get("commit"))
    bounds = new["bounds"]
    for name, entry in new["workloads"].items():
        other = base["workloads"].get(name)
        if other is None:
            continue
        for metric, row in entry["end_to_end"].items():
            old = other["end_to_end"].get(metric)
            if old is None:
                continue
            rule = bounds[metric]
            ratio = row["value"] / old["value"] if old["value"] else None
            worse_by = _worse_by(old["value"], row["value"],
                                 rule["better"], rule["kind"])
            if rule["clock"] == "sim" and same_commit:
                verdict = "ok" if row["value"] == old["value"] else "worse"
            elif worse_by > rule["amount"]:
                verdict = "worse"
            elif (rule["clock"] == "host"
                  and max(_spread(old), _spread(row)) > rule["amount"]
                  and not _all_better(old, row, rule["better"])):
                verdict = "unresolved"
            else:
                verdict = "ok"
            yield name, metric, old["value"], row["value"], ratio, verdict


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True,
                        help="the base result file")
    parser.add_argument("--results", default=DEFAULT_RESULTS,
                        help="the new result file (default %(default)s)")
    args = parser.parse_args(argv)
    with open(args.against, encoding="utf-8") as fh:
        base = json.load(fh)
    with open(args.results, encoding="utf-8") as fh:
        new = json.load(fh)
    if base.get("seed") != new.get("seed"):
        raise SystemExit(
            f"seeds differ ({base.get('seed')} vs {new.get('seed')}): "
            "same-seed bounds do not apply")
    print(f"base {args.against} (commit {base.get('commit')})")
    print(f"new  {args.results} (commit {new.get('commit')})")
    print(f"{'workload':<22} {'metric':<16} {'base':>14} {'new':>14} "
          f"{'new/base':>9}  verdict")
    worse = 0
    for name, metric, old, value, ratio, verdict in compare(base, new):
        shown = f"{ratio:9.4f}" if ratio is not None else f"{'-':>9}"
        print(f"{name:<22} {metric:<16} {old:>14.6g} {value:>14.6g} "
              f"{shown}  {verdict}")
        worse += verdict == "worse"
    print(f"{worse} worse")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
