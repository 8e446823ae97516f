"""Which functions of ``src/repro`` run in production, only under tests, or
nowhere.

Every ``def`` under ``src/repro`` is found by an AST walk and matched
against the code objects that actually ran in two sets of invocations:

* **production** — the six bench workloads (seed 3, untraced: the traced
  pass's cProfile would replace the hook), ``repro chaos --seed 0``, the
  two CI smoke-kv runs (cuckoo and B+tree), the two shard-oracle
  commands, the migration chaos pair at seed 3, ``repro traffic``,
  ``compare``, ``schemes`` and ``run``, the six examples and
  ``benchmarks/paper.py``;
* **tests** — tier-1, ``-m chaos`` and ``bench/test_bench.py``.

A temporary ``sitecustomize`` installs a ``sys.setprofile`` and
``threading.setprofile`` hook in every Python process started under it
(subprocesses included: ``bench/run.py`` runs each round in a child), and
each process writes the ``(file, first line)`` of every ``src/repro``
code object it entered to ``<pid>.json`` at exit.  A code object's first
line is its first decorator's, so the AST side is keyed the same way.

Run it from the repository root (about 20 minutes on a 2-core box)::

    python tools/reachability.py                 # counts
    python tools/reachability.py --list test     # + the test-only defs
    python tools/reachability.py --json bins.json  # every bin's defs, to diff

It prints ``functions / lines`` for each bin; a function's lines run from
its ``def`` line to its last line, docstring included, decorators not.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

_HOOK = r'''
import atexit, json, os, sys, threading

_PREFIX = os.environ["REACH_PREFIX"]
_OUT = os.environ["REACH_OUT"]
_seen = set()
_add = _seen.add


def _hook(frame, event, arg):
    if event == "call":
        _add(frame.f_code)


def _dump():
    sys.setprofile(None)
    rows = sorted({(c.co_filename, c.co_firstlineno) for c in _seen
                   if c.co_filename.startswith(_PREFIX)})
    path = os.path.join(_OUT, "%d.json" % os.getpid())
    with open(path, "w") as fh:
        json.dump(rows, fh)


atexit.register(_dump)
sys.setprofile(_hook)
threading.setprofile(_hook)
'''

_BENCH = ("closed-search", "closed-hybrid", "closed-offload-cache",
          "open-shard", "open-shard-overload", "closed-shard-skew")
_EXAMPLES = ("quickstart.py", "adaptive_backoff_demo.py", "nearest_neighbors.py",
             "geo_service.py", "hurricane_monitor.py", "framework_generality.py")
_REPRO = [sys.executable, "-m", "repro"]

PRODUCTION = (
    [[sys.executable, "bench/run.py", "--workload", w, "--seed", "3",
      "--seconds", "5", "--trace", "0"] for w in _BENCH]
    + [_REPRO + ["chaos", "--seed", "0"],
       _REPRO + ["run", "--index", "cuckoo", "--scheme", "catfish-bandit",
                 "--clients", "4", "--requests", "50", "--dataset-size", "2000",
                 "--server-cores", "2", "--trace", "--metrics-out", "{tmp}/kv.json"],
       _REPRO + ["run", "--index", "btree", "--scheme", "catfish",
                 "--clients", "4", "--requests", "50", "--dataset-size", "2000",
                 "--server-cores", "2", "--get-fraction", "0.5",
                 "--scan-fraction", "0.3", "--metrics-out", "{tmp}/bt.json"],
       _REPRO + ["shard", "--shards", "4", "--clients", "4", "--requests", "50",
                 "--dataset-size", "3000", "--server-cores", "2", "--scale", "0.02"],
       _REPRO + ["shard", "--shards", "4", "--rebalance", "--workload",
                 "search-skewed", "--clients", "4", "--requests", "60",
                 "--dataset-size", "2000", "--server-cores", "1", "--scale", "0.02"],
       _REPRO + ["chaos", "--scenario", "migration-racing-writes",
                 "--scenario", "rebalance-under-fault", "--seed", "3"],
       _REPRO + ["traffic"], _REPRO + ["compare"], _REPRO + ["schemes"],
       _REPRO + ["run"]]
    + [[sys.executable, f"examples/{name}"] for name in _EXAMPLES]
    + [[sys.executable, "benchmarks/paper.py"]]
)

TESTS = (
    [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
    [sys.executable, "-m", "pytest", "-m", "chaos", "-q", "-p", "no:cacheprovider"],
    [sys.executable, "-m", "pytest", "bench/test_bench.py", "-q",
     "-p", "no:cacheprovider"],
)


def defs():
    """``{(file, first line): (qualified name, lines)}`` for every def."""
    out = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        stack = [(tree, "")]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([d.lineno for d in child.decorator_list]
                                + [child.lineno])
                    name = prefix + child.name
                    out[(str(path), first)] = (
                        f"{path.relative_to(SRC.parent)}:{first} {name}",
                        child.end_lineno - child.lineno + 1)
                    stack.append((child, name + "."))
                elif isinstance(child, ast.ClassDef):
                    stack.append((child, prefix + child.name + "."))
                else:
                    stack.append((child, prefix))
    return out


def reached(commands, label):
    """The ``(file, first line)`` keys that ran in any of ``commands``."""
    keys = set()
    with tempfile.TemporaryDirectory() as tmp:
        hook_dir = pathlib.Path(tmp, "hook")
        out_dir = pathlib.Path(tmp, "out")
        hook_dir.mkdir()
        out_dir.mkdir()
        (hook_dir / "sitecustomize.py").write_text(_HOOK)
        env = dict(os.environ, REACH_PREFIX=str(SRC), REACH_OUT=str(out_dir),
                   PYTHONPATH=os.pathsep.join(
                       [str(hook_dir), str(ROOT / "src")]
                       + ([os.environ["PYTHONPATH"]]
                          if os.environ.get("PYTHONPATH") else [])))
        for cmd in commands:
            cmd = [part.replace("{tmp}", tmp) for part in cmd]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, env=env, check=False,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
            status = "ok" if proc.returncode == 0 else f"exit {proc.returncode}"
            print(f"[{label}] {status:>7} {time.perf_counter() - start:6.1f}s "
                  f"{' '.join(cmd[1:])}", file=sys.stderr, flush=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr[-2000:])
        for dump in out_dir.glob("*.json"):
            keys.update(tuple(row) for row in json.loads(dump.read_text()))
    return keys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", choices=("production", "test", "nowhere"),
                        action="append", default=[],
                        help="also print the defs of this bin")
    parser.add_argument("--json", metavar="PATH",
                        help="write every bin's defs to PATH")
    args = parser.parse_args(argv)

    table = defs()
    prod = reached(PRODUCTION, "production")
    test = reached(TESTS, "tests")
    bins = {"production": [], "test": [], "nowhere": []}
    for key, row in sorted(table.items()):
        if key in prod:
            bins["production"].append(row)
        elif key in test:
            bins["test"].append(row)
        else:
            bins["nowhere"].append(row)
    labels = {"production": "ran in production",
              "test": "ran only under tests", "nowhere": "ran nowhere"}
    for name, rows in bins.items():
        print(f"{labels[name]:>22}: {len(rows):5d} functions "
              f"{sum(n for _, n in rows):6d} lines")
    for name in args.list:
        print(f"\n# {labels[name]}")
        for qual, n in sorted(bins[name]):
            print(f"{n:5d}  {qual}")
    if args.json:
        pathlib.Path(args.json).write_text(json.dumps(
            {name: [qual for qual, _ in rows] for name, rows in bins.items()},
            indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
