"""Run the paper-claims table: each row's table, then its predicates.

    PYTHONPATH=src python benchmarks/paper.py [--scale small|medium|large]
                                              [--claim ID ...] [--write]

Each selected row of ``claims.CLAIMS`` runs its points once, prints its
table (markdown) and one ``[ok]`` / ``[FAIL] id:predicate detail`` line
per predicate; exit status 1 if any failed.  ``--write`` puts each table
into its row's ``<!-- claim:ID -->`` block of EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from pathlib import Path

from claims import CLAIMS, PRESETS
from repro import ExperimentConfig, run_experiment
from repro.cluster import KvExperimentConfig, run_kv_experiment

EXPERIMENTS = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"
BLOCK = re.compile(r"(<!-- claim:(\S+) -->\n)(.*?)(<!-- /claim -->)", re.S)
RUNNERS = {ExperimentConfig: run_experiment,
           KvExperimentConfig: run_kv_experiment}


def run_point(point):
    runner = RUNNERS.get(type(point))
    return runner(point) if runner else point()


def markdown(header, rows) -> str:
    """The table, set off by blank lines so it renders between markers."""
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n" + "\n".join(lines) + "\n\n"


def run(claims, preset):
    """Run every row once; returns ``({id: table}, any predicate failed)``."""
    tables, failed = {}, False
    for row in claims:
        start = time.perf_counter()
        results = {key: run_point(point)
                   for key, point in row.points(preset).items()}
        tables[row.id] = markdown(*row.columns(results))
        print(f"\n== {row.id} ({row.source}): "
              f"{row.summary.splitlines()[0]}{tables[row.id]}")
        for name, ok, detail in row.check(results):
            failed |= not ok
            print(f"[{'ok' if ok else 'FAIL'}] {row.id}:{name} {detail}"
                  .rstrip())
        print(f"({time.perf_counter() - start:.1f} s wall)")
    return tables, failed


def write_blocks(tables, path: Path = EXPERIMENTS) -> None:
    """Replace the body of each block whose row ran; keep the others."""
    text = path.read_text(encoding="utf-8")
    missing = set(tables) - {m.group(2) for m in BLOCK.finditer(text)}
    if missing:
        raise SystemExit(f"{path.name} has no block for {sorted(missing)}")
    path.write_text(BLOCK.sub(lambda m: m.group(1) + tables.get(
        m.group(2), m.group(3)) + m.group(4), text), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(PRESETS), default="small")
    parser.add_argument("--claim", nargs="+", metavar="ID",
                        choices=[row.id for row in CLAIMS],
                        help="run only these rows (default: all)")
    parser.add_argument("--write", action="store_true",
                        help="rewrite the rows' blocks in EXPERIMENTS.md")
    args = parser.parse_args(argv)
    if args.write and args.scale != "small":
        parser.error("EXPERIMENTS.md holds the small preset; --write needs it")
    tables, failed = run([row for row in CLAIMS
                          if not args.claim or row.id in args.claim],
                         PRESETS[args.scale])
    if args.write:
        write_blocks(tables)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
