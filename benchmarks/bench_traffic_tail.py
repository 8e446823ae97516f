"""Tail latency under open-loop load: the repro.traffic acceptance run.

Four claims, all beyond the paper's closed-loop figures:

1. **Saturation curve** — sweeping the offered rate over one deployment,
   achieved throughput tracks offered (within tolerance) until the
   service saturates, then plateaus while the mux sheds the excess at
   its queue-depth watermark; sojourn percentiles stay ordered
   (p50 <= p95 <= p99 <= p99.9) and bounded by the watermark queue.
2. **Flash crowd** — the ``flash-crowd`` chaos scenario is green: the
   mux watermark and the server overload guard both shed during the
   spike, shedding stops afterwards, throughput recovers, and the whole
   run replays to a bit-identical fingerprint.
3. **Sharded** — the same open-loop harness drives a K=4 sharded
   deployment through scatter-gather routers; conservation holds and
   achieved tracks offered at a sub-saturation rate.
4. **Million users** — >= 2^20 virtual users (64 aggregates x 16384)
   run in bounded wall-clock: aggregation cost scales with *arrivals*,
   not with the user population.

Usable both ways::

    PYTHONPATH=src python benchmarks/bench_traffic_tail.py [--smoke]
    PYTHONPATH=src python -m pytest benchmarks/bench_traffic_tail.py
"""

from __future__ import annotations

import sys
import time

from repro import ExperimentConfig
from repro.chaos import run_scenario
from repro.traffic import TrafficConfig
from repro.traffic.harness import TrafficResult, rate_sweep, run_traffic

#: Below saturation, achieved must stay within this fraction of offered.
TRACKING_TOLERANCE = 0.15
#: Above saturation, achieved must stop growing: the top rate's achieved
#: throughput may exceed the knee's by at most this factor.
PLATEAU_FACTOR = 1.25
#: The million-user stage must finish within this wall-clock budget.
MILLION_USER_WALL_S = 30.0

#: Offered rates (arrivals/s).  The 4-session deployment below
#: saturates around ~300k/s, so the sweep brackets the knee.
SWEEP_RATES = (50_000.0, 150_000.0, 600_000.0, 1_200_000.0)
SWEEP_SUBSATURATED = 2  # first N rates must track offered


def _base_config(**traffic_kw) -> ExperimentConfig:
    traffic = TrafficConfig(
        kind="poisson",
        duration_s=2e-3,
        n_aggregates=4,
        users_per_aggregate=1000,
        sessions=4,
        queue_watermark=64,
        window=256,
        **traffic_kw,
    )
    return ExperimentConfig(
        scheme="fast-messaging-event",
        fabric="ib-100g",
        dataset_size=2_000,
        seed=0,
        traffic=traffic,
    )


def _check_conservation(result: TrafficResult) -> None:
    accounted = (result.completed + result.failed
                 + result.shed_client_total)
    assert accounted == result.arrivals, (
        f"{result.arrivals} arrivals != {result.completed} completed + "
        f"{result.failed} failed + {result.shed_client_total} shed"
    )


def run_sweep_stage(smoke: bool = False) -> list:
    # The sweep is cheap even at full size (milliseconds of simulated
    # time per point); smoke keeps all four rates so the knee/plateau
    # pair is always present.
    results = rate_sweep(_base_config(), list(SWEEP_RATES))
    for result in results:
        _check_conservation(result)
        assert (result.sojourn_p50_us <= result.sojourn_p95_us
                <= result.sojourn_p99_us <= result.sojourn_p999_us), (
            "sojourn percentiles out of order", result.row())
    # Sub-saturated points track the offered rate.
    for result in results[:SWEEP_SUBSATURATED]:
        ratio = result.achieved_rps / result.offered_rps
        assert abs(1.0 - ratio) <= TRACKING_TOLERANCE, (
            f"offered {result.offered_rps:.0f}/s but achieved "
            f"{result.achieved_rps:.0f}/s (off by {abs(1 - ratio):.0%})"
        )
    # The top rate is past the knee: achieved has plateaued and the
    # watermark is visibly shedding the excess.
    knee, top = results[-2], results[-1]
    assert top.achieved_rps <= knee.achieved_rps * PLATEAU_FACTOR, (
        f"no plateau: {knee.achieved_rps:.0f} -> {top.achieved_rps:.0f}"
    )
    assert top.shed_watermark > knee.shed_watermark >= 0
    assert top.shed_client_total > 0
    return results


def run_flash_crowd_stage(seed: int = 0):
    report = run_scenario("flash-crowd", seed=seed)
    assert report.ok, report.failures
    fired = [n for n, ok, _d in report.invariants
             if n.startswith("fault-fired:")]
    assert len(fired) >= 3, "spike/shed checks missing"
    again = run_scenario("flash-crowd", seed=seed)
    assert report.fingerprint() == again.fingerprint(), "replay diverged"
    return report


def run_sharded_stage(smoke: bool = False) -> TrafficResult:
    config = _base_config(rate=100_000.0 if smoke else 200_000.0)
    config.n_shards = 4
    result = run_traffic(config)
    _check_conservation(result)
    assert result.n_shards == 4
    ratio = result.achieved_rps / result.offered_rps
    assert abs(1.0 - ratio) <= TRACKING_TOLERANCE, (
        f"sharded run off offered rate by {abs(1 - ratio):.0%}"
    )
    return result


def run_million_user_stage(smoke: bool = False) -> TrafficResult:
    config = ExperimentConfig(
        scheme="fast-messaging-event",
        fabric="ib-100g",
        dataset_size=2_000,
        seed=0,
        traffic=TrafficConfig(
            kind="poisson",
            rate=200_000.0 if smoke else 400_000.0,
            duration_s=2e-3,
            n_aggregates=64,
            users_per_aggregate=16_384,
            sessions=8,
            queue_watermark=256,
            window=64,
        ),
    )
    start = time.perf_counter()
    result = run_traffic(config)
    wall = time.perf_counter() - start
    assert result.users_total >= 1_000_000, result.users_total
    assert result.users_touched > 0
    assert result.completed > 0
    _check_conservation(result)
    assert wall <= MILLION_USER_WALL_S, (
        f"{result.users_total:,} users took {wall:.1f}s wall "
        f"(budget {MILLION_USER_WALL_S:.0f}s)"
    )
    return result


# -- pytest entry points ----------------------------------------------------

def test_traffic_saturation_smoke():
    run_sweep_stage(smoke=True)


def test_traffic_flash_crowd_smoke():
    run_flash_crowd_stage()


def test_traffic_sharded_smoke():
    run_sharded_stage(smoke=True)


def test_traffic_million_users_smoke():
    run_million_user_stage(smoke=True)


# -- CLI entry point --------------------------------------------------------

def main(argv) -> int:
    smoke = "--smoke" in argv[1:]
    print(f"== rate sweep ({'smoke' if smoke else 'full'}) ==")
    print(TrafficResult.header())
    for result in run_sweep_stage(smoke=smoke):
        print(result.row())

    print("\n== flash crowd (chaos scenario) ==")
    report = run_flash_crowd_stage()
    for line in report.describe():
        print(line)
    print(f"  fingerprint: {report.fingerprint()}")

    print("\n== sharded (K=4) ==")
    print(TrafficResult.header())
    print(run_sharded_stage(smoke=smoke).row())

    print("\n== million users ==")
    start = time.perf_counter()
    result = run_million_user_stage(smoke=smoke)
    wall = time.perf_counter() - start
    print(f"{result.users_total:,} virtual users, "
          f"{result.users_touched:,} touched, "
          f"{result.completed} completed in {wall:.2f}s wall")
    print("\nall traffic stages passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
