"""Tests of the scoreboard itself.

Run explicitly: ``python -m pytest bench/test_bench.py`` (``testpaths``
keeps this directory out of the tier-1 suite).  Everything runs at a few
percent of the real request counts.
"""

from __future__ import annotations

import copy
import json
import os
import re
import subprocess
import sys

import pytest

import run                      # first: puts src/ on sys.path
import check
import hostprof
from baskets import BASKET_UNITS, run_baskets
from metrics import END_TO_END, PER_LAYER, UNGATED
from workloads import (
    BY_NAME,
    RUN_SECONDS,
    WORKLOADS,
    CheckFailed,
    hybrid_sandwich,
    run_once,
    sub_seeds,
)

SMALL = 0.02
ONE_SEED = RUN_SECONDS / 4      # short enough that every pool rounds to 1
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _quiet(*_args, **_kwargs):
    pass


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_workload_builds_checks_and_emits_every_metric(workload):
    assert len(sub_seeds(0, ONE_SEED, workload)) == 1
    measured = run.measure(workload, 0, ONE_SEED, SMALL, log=_quiet)
    assert not measured["failures"], measured["failures"]
    assert sorted(measured["values"]) == sorted(
        m.name for m in END_TO_END + UNGATED)
    assert all(measured["values"][m.name] > 0 for m in END_TO_END)

    traced = run.trace(workload, 0, ONE_SEED, SMALL, log=_quiet)
    assert not traced["failures"], traced["failures"]
    expected = [m.name for m in PER_LAYER if not m.name.startswith("basket.")]
    assert sorted(traced["values"]) == sorted(expected)
    shares = [v for k, v in traced["values"].items()
              if k.endswith(".self_share")]
    assert sum(shares) == pytest.approx(1.0)
    # The traced first sub-seed is the measured (only) sub-seed.
    for metric in UNGATED:
        assert (traced["values"][f"tail.{metric.name}"]
                == measured["values"][metric.name])


def test_baskets_emit_their_declared_names():
    assert sorted(run_baskets(0)) == sorted(BASKET_UNITS)


def test_metric_names_are_unique_and_well_formed():
    names = [m.name for m in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert len(PER_LAYER) <= 128 and len(END_TO_END) <= 16


def test_benchmark_json_agrees_with_the_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert sorted(manifest) == ["command", "end_to_end", "paths",
                                "per_layer", "run_seconds", "workloads"]
    assert manifest["command"] == ["python3", "bench/run.py"]
    assert manifest["paths"] == ["bench"]
    assert manifest["run_seconds"] == RUN_SECONDS
    assert [(w["name"], w["why"]) for w in manifest["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS]
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in WORKLOADS)
    assert manifest["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in END_TO_END]
    assert manifest["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER]
    assert any(m["name"] == "setup_s" for m in manifest["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])


def test_readme_is_a_complete_glossary():
    with open(os.path.join(ROOT, "bench", "README.md"),
              encoding="utf-8") as fh:
        readme = fh.read()
    names = [w.name for w in WORKLOADS]
    names += [m.name for m in END_TO_END + UNGATED]
    names += [m.name for m in PER_LAYER
              if not m.name.startswith(("prof.", "tail."))]
    assert [n for n in names if f"`{n}`" not in readme] == []


_FINGERPRINT = """
import json, sys
sys.path.insert(0, {bench!r})
import run
from workloads import BY_NAME
traced = run.trace(BY_NAME[{name!r}], 0, {seconds!r}, {fraction!r},
                   log=lambda *a: None)
keep = {{k: v for k, v in traced["values"].items()
        if not k.startswith("prof.")}}
print(json.dumps(keep, sort_keys=True))
"""


def _fingerprint(name: str, hash_seed: str) -> dict:
    script = _FINGERPRINT.format(bench=os.path.join(ROOT, "bench"),
                                 name=name, seconds=ONE_SEED, fraction=SMALL)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_simulated_metrics_and_counts_repeat_exactly():
    workload = BY_NAME["closed-hybrid"]
    first = run.trace(workload, 0, ONE_SEED, SMALL, log=_quiet)["values"]
    second = run.trace(workload, 0, ONE_SEED, SMALL, log=_quiet)["values"]
    exact = [k for k in first if not k.startswith("prof.")]
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}
    # Call counts are exact too; only the time shares are host-dependent.
    calls = [k for k in first if k.endswith(".calls_per_req")]
    assert {k: first[k] for k in calls} == {k: second[k] for k in calls}
    shuffled = _fingerprint(workload.name, "random")
    assert shuffled == json.loads(json.dumps({k: first[k] for k in exact}))


def test_hybrid_sandwich_rejects_a_dropped_insert():
    workload = BY_NAME["closed-hybrid"]
    runner, result, _setup, _run = run_once(workload, 0, SMALL)
    import workloads
    streams = workloads.client_streams(runner.config)
    initial = workloads.oracle_tree(runner)
    tree = runner.server.tree
    args = dict(results_received=workloads.total_results(
                    runner.client_stats),
                inserts_served=result.inserts_served,
                dataset_size=runner.config.dataset_size)
    held = runner.stack.items_held()
    hybrid_sandwich(streams, initial, tree, items_held=held, **args)

    dropped = next(r for stream in streams for r in stream
                   if r.op == "insert")
    assert tree.delete(dropped.rect, dropped.data_id).ok
    with pytest.raises(CheckFailed, match="server holds"):
        hybrid_sandwich(streams, initial, tree,
                        items_held=runner.stack.items_held(), **args)
    with pytest.raises(CheckFailed, match="not found afterwards"):
        hybrid_sandwich(streams, initial, tree, items_held=held, **args)


def test_profile_bucketing_charges_builtins_to_the_calling_package():
    sim_fn = ("/x/src/repro/sim/kernel.py", 10, "step")
    tree_fn = ("/x/src/repro/rtree/rstar.py", 20, "search")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    uniform = ("/usr/lib/python3/random.py", 5, "uniform")
    rand = ("~", 0, "<method 'random' of '_random.Random' objects>")
    harness = ("/x/bench/run.py", 1, "measure")
    stats = {
        harness: (1, 1, 0.5, 10.0, {}),
        sim_fn: (100, 100, 2.0, 6.0, {harness: (100, 100, 2.0, 6.0)}),
        tree_fn: (50, 50, 3.0, 3.5, {sim_fn: (50, 50, 3.0, 3.5)}),
        # heappush: 3/4 of its self time from sim, 1/4 from rtree.
        heappush: (80, 80, 1.0, 1.0, {sim_fn: (60, 60, 0.75, 0.75),
                                      tree_fn: (20, 20, 0.25, 0.25)}),
        # random() is reached through stdlib uniform(), called by rtree.
        uniform: (10, 10, 0.2, 0.5, {tree_fn: (10, 10, 0.2, 0.5)}),
        rand: (10, 10, 0.3, 0.3, {uniform: (10, 10, 0.3, 0.3)}),
    }
    buckets = hostprof.bucket_stats(stats)
    assert buckets["sim"]["self_s"] == pytest.approx(2.0 + 0.75)
    assert buckets["rtree"]["self_s"] == pytest.approx(3.0 + 0.25 + 0.5)
    assert buckets["other"]["self_s"] == pytest.approx(0.5)
    assert buckets["sim"]["calls"] == 100 and buckets["rtree"]["calls"] == 50
    shares = hostprof.layer_shares(buckets, requests=10)
    total = sum(v for k, v in shares.items() if k.endswith(".self_share"))
    assert total == pytest.approx(1.0)
    assert shares["prof.sim.calls_per_req"] == 10.0


def _result_doc():
    row = {"value": 100.0, "rounds": [100.0, 101.0, 102.0], "median": 101.0,
           "q1": 100.0, "q3": 102.0, "min": 100.0, "max": 102.0}
    sim = dict(row, value=50.0, rounds=[50.0] * 3, median=50.0, q1=50.0,
               q3=50.0)
    return {
        "seed": 0, "commit": "abc",
        "bounds": {
            "host_us_per_req": {"kind": "rel", "amount": 0.10,
                                "better": "lower", "clock": "host"},
            "sim_p99_us": {"kind": "rel", "amount": 0.03,
                           "better": "lower", "clock": "sim"},
        },
        "workloads": {"closed-search": {"end_to_end": {
            "host_us_per_req": row, "sim_p99_us": sim}}},
    }


def _verdicts(base, new):
    return {metric: verdict
            for _w, metric, _o, _n, _r, verdict in check.compare(base, new)}


def test_check_verdicts():
    base = _result_doc()
    assert set(_verdicts(base, base).values()) == {"ok"}

    slower = copy.deepcopy(base)
    slower["workloads"]["closed-search"]["end_to_end"][
        "host_us_per_req"]["value"] = 115.0
    assert _verdicts(base, slower)["host_us_per_req"] == "worse"

    noisy = copy.deepcopy(base)
    noisy["workloads"]["closed-search"]["end_to_end"][
        "host_us_per_req"].update(q1=90.0, q3=110.0)
    assert _verdicts(base, noisy)["host_us_per_req"] == "unresolved"

    drifted = copy.deepcopy(base)
    drifted["workloads"]["closed-search"]["end_to_end"][
        "sim_p99_us"]["value"] = 50.0000001
    assert _verdicts(base, drifted)["sim_p99_us"] == "worse"
    drifted["commit"] = "def"       # another commit: the 3% bound applies
    assert _verdicts(base, drifted)["sim_p99_us"] == "ok"
