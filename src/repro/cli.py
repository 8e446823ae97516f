"""Command-line interface: run experiments without writing a script.

Examples::

    python -m repro run --scheme catfish --fabric ib-100g --clients 32
    python -m repro run --index btree --scheme catfish --scan-fraction 0.1
    python -m repro compare --clients 16 --scale 0.01
    python -m repro schemes
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .client.adaptive import AdaptiveParams
from .cluster.builder import build_runner, run_experiment
from .cluster.config import INDEXES, ExperimentConfig, KvMix
from .cluster.results import RunResult
from .cluster.schemes import SCHEMES
from .net.fabric import PROFILES


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fabric", default="ib-100g",
                        choices=sorted(PROFILES),
                        help="interconnect profile")
    parser.add_argument("--clients", type=int, default=16,
                        help="number of simulated clients")
    parser.add_argument("--requests", type=int, default=100,
                        help="requests per client")
    parser.add_argument("--scale", default="0.0001",
                        help="query scale ('0.01', 'powerlaw', ...)")
    parser.add_argument("--workload", default="search",
                        choices=["search", "search-skewed", "hybrid",
                                 "mixed"],
                        help="request mix ('mixed' = read-only "
                             "search/count/nearest; 'search-skewed' = "
                             "Zipf-hotspot searches)")
    parser.add_argument("--dataset-size", type=int, default=20_000,
                        help="items (rectangles or keys) in the "
                             "pre-built index")
    parser.add_argument("--server-cores", type=int, default=28)
    parser.add_argument("--heartbeat-ms", type=float, default=0.5,
                        help="heartbeat interval in milliseconds")
    parser.add_argument("--adaptive-n", type=int, default=8,
                        help="Algorithm 1 back-off base N")
    parser.add_argument("--adaptive-t", type=float, default=0.95,
                        help="Algorithm 1 busy threshold T")
    parser.add_argument("--batch-queries", type=int, default=0,
                        help="group up to N consecutive searches into one "
                             "shared offload traversal (0 = off, the "
                             "fingerprint-pinned default)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write the catfish-metrics/v1 JSON snapshot "
                             "(all runs of this command) to PATH")
    parser.add_argument("--trace", action="store_true",
                        help="record per-request spans in the metrics "
                             "snapshot (implies --metrics-out usefulness)")


def _rebalance_from(args):
    if not getattr(args, "rebalance", False):
        return None
    from .cluster.config import RebalanceConfig
    return RebalanceConfig()


def _config_from(args, scheme: str) -> ExperimentConfig:
    heartbeat = args.heartbeat_ms * 1e-3
    return ExperimentConfig(
        scheme=scheme,
        fabric=args.fabric,
        n_clients=args.clients,
        requests_per_client=args.requests,
        workload_kind=args.workload,
        scale=args.scale,
        dataset_size=args.dataset_size,
        server_cores=args.server_cores,
        heartbeat_interval=heartbeat,
        adaptive=AdaptiveParams(N=args.adaptive_n, T=args.adaptive_t,
                                Inv=heartbeat),
        seed=args.seed,
        batch_queries=getattr(args, "batch_queries", 0),
        collect_timeline=getattr(args, "timeline", False),
        trace=getattr(args, "trace", False),
        n_shards=getattr(args, "shards", None),
        rebalance=_rebalance_from(args),
        index=getattr(args, "index", "rtree"),
        kv=(KvMix(args.get_fraction, args.scan_fraction, args.zipf)
            if hasattr(args, "zipf") else KvMix()),
    )


def _write_metrics(args, documents: List[dict]) -> None:
    """Write run snapshot(s) to ``--metrics-out`` (one doc, or a list)."""
    if not getattr(args, "metrics_out", None):
        return
    from .obs import write_metrics_json
    payload = documents[0] if len(documents) == 1 else documents
    try:
        path = write_metrics_json(args.metrics_out, payload)
    except OSError as exc:
        print(f"error: cannot write metrics to {args.metrics_out!r}: "
              f"{exc}", file=sys.stderr)
        raise SystemExit(2)
    print(f"metrics written to {path}", file=sys.stderr)


def _tcp_compatible(scheme: str, fabric: str) -> bool:
    needs_rdma = SCHEMES[scheme].transport != "tcp"
    return PROFILES[fabric].rdma or not needs_rdma


def cmd_run(args) -> int:
    try:
        runner = build_runner(_config_from(args, args.scheme))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = runner.run()
    print(RunResult.header())
    print(result.row())
    _write_metrics(args, [result.metrics])
    if getattr(args, "timeline", False):
        from .viz import render_timeline
        print()
        for line in render_timeline(result.timeline):
            print(line)
    if args.verbose:
        print(f"\nelapsed (simulated): {result.elapsed_s * 1e3:.3f} ms")
        print(f"p50/p99 latency: {result.p50_latency_us:.1f} / "
              f"{result.p99_latency_us:.1f} us")
        print(f"torn-read retries: {result.torn_retries}, "
              f"search restarts: {result.search_restarts}")
        print(f"heartbeats sent/dropped: {result.heartbeats_sent}/"
              f"{result.heartbeats_dropped}")
        print(f"server-side searches/inserts: "
              f"{result.searches_served_by_server}/{result.inserts_served}")
        from .viz import render_metrics
        print()
        for line in render_metrics(result.metrics):
            print(line)
    return 0


def cmd_compare(args) -> int:
    schemes = args.schemes or [
        "tcp", "fast-messaging", "rdma-offloading", "catfish",
    ]
    print(RunResult.header())
    documents = []
    for scheme in schemes:
        if scheme not in SCHEMES:
            print(f"error: unknown scheme {scheme!r}", file=sys.stderr)
            return 2
        fabric = args.fabric
        if not _tcp_compatible(scheme, fabric):
            fabric = "ib-100g"
        if SCHEMES[scheme].transport == "tcp" and PROFILES[fabric].rdma:
            fabric = "eth-1g"
        result = run_experiment(_config_from(args, scheme)
                                if fabric == args.fabric else
                                _config_with_fabric(args, scheme, fabric))
        print(result.row())
        documents.append(result.metrics)
    _write_metrics(args, documents)
    return 0


def _config_with_fabric(args, scheme, fabric) -> ExperimentConfig:
    config = _config_from(args, scheme)
    config.fabric = fabric
    return config


def cmd_chaos(args) -> int:
    from .chaos import SCENARIOS, ScenarioReport, run_scenario
    if args.list:
        width = max(len(name) for name in SCENARIOS)
        for name, scenario in SCENARIOS.items():
            print(f"{name:<{width}}  {scenario.summary}")
        return 0
    names = args.scenario or list(SCENARIOS)
    for name in names:
        if name not in SCENARIOS:
            print(f"error: unknown scenario {name!r} "
                  f"(try `repro chaos --list`)", file=sys.stderr)
            return 2
    overrides = {}
    if args.clients is not None:
        overrides["n_clients"] = args.clients
    if args.requests is not None:
        overrides["requests_per_client"] = args.requests
    if args.dataset_size is not None:
        overrides["dataset_size"] = args.dataset_size
    print(ScenarioReport.header())
    failed = 0
    for name in names:
        report = run_scenario(name, seed=args.seed, **overrides)
        print(report.row())
        if args.verbose or not report.ok:
            for line in report.describe():
                print(line)
            print(f"  fingerprint: {report.fingerprint()}")
        if not report.ok:
            failed += 1
    if failed:
        print(f"\n{failed}/{len(names)} scenario(s) FAILED",
              file=sys.stderr)
        return 1
    print(f"\n{len(names)} scenario(s) passed")
    return 0


#: Workload kinds whose requests are all reads — the single bulk-loaded
#: tree stays an exact oracle for every routed query, so `repro shard`
#: can verify the merged results rather than just report throughput.
_READ_ONLY_WORKLOADS = ("search", "search-skewed", "mixed")


def cmd_shard(args) -> int:
    from .shard.deploy import ShardedExperimentRunner
    from .shard.verify import verify_routed_results
    if not PROFILES[args.fabric].rdma:
        print(f"error: sharded Catfish needs an RDMA fabric, "
              f"not {args.fabric!r}", file=sys.stderr)
        return 2
    verify = args.workload in _READ_ONLY_WORKLOADS and not args.no_verify
    config = _config_from(args, args.scheme)
    runner = ShardedExperimentRunner(config, record_results=verify)
    result = runner.run()
    print(RunResult.header())
    print(result.row())
    _write_metrics(args, [result.metrics])
    print(f"\nshard map ({runner.n_shards} shards):")
    for line in runner.partition.shard_map.describe():
        print(f"  {line}")
    routed = sum(s.queries_routed for s in runner.router_stats)
    issued = sum(s.subqueries_issued for s in runner.router_stats)
    pruned = sum(s.shards_pruned for s in runner.router_stats)
    partial = sum(s.partial_results for s in runner.router_stats)
    print(f"\nrouter: {routed} queries -> {issued} sub-queries "
          f"({pruned} shard visits pruned, {partial} partial results)")
    before = runner.initial_occupancy()
    after = runner.shard_occupancy()
    print(f"\nshard occupancy (items before -> after):")
    for shard_id, (b, a) in enumerate(zip(before, after)):
        delta = a - b
        print(f"  shard {shard_id}: {b:>7} -> {a:>7} ({delta:+d})")
    if runner.rebalancer is not None:
        s = runner.rebalance_stats
        rescattered = sum(r.epoch_rescatters for r in runner.router_stats)
        print(f"rebalance: {s.splits} splits, {s.merges} merges, "
              f"{s.migrations_completed} migrations "
              f"({s.items_migrated} items moved), "
              f"map epoch {runner.live_map.epoch}, "
              f"{len(runner.live_map.tiles)} tiles, "
              f"{rescattered} epoch re-scatters")
    if not verify:
        print("oracle verification skipped "
              f"(workload {args.workload!r} is not read-only)"
              if args.workload not in _READ_ONLY_WORKLOADS
              else "oracle verification skipped (--no-verify)")
        return 0
    summary = verify_routed_results(runner)
    print()
    for line in summary.describe():
        print(line)
    if not summary.ok:
        print("error: merged results diverge from the single-server "
              "oracle", file=sys.stderr)
        return 1
    print("merged results identical to the single-server oracle")
    return 0


def _parse_tenants(specs: Optional[List[str]]):
    if not specs:
        return (("default", 1.0),)
    tenants = []
    for spec in specs:
        name, sep, weight = spec.partition(":")
        if not name:
            raise SystemExit(f"error: bad tenant spec {spec!r} "
                             f"(want NAME or NAME:WEIGHT)")
        tenants.append((name, float(weight) if sep else 1.0))
    return tuple(tenants)


def cmd_traffic(args) -> int:
    from .cluster.schemes import TRANSPORT_TCP
    from .traffic import TrafficConfig
    from .traffic.harness import TrafficResult, rate_sweep, run_traffic

    if SCHEMES[args.scheme].transport == TRANSPORT_TCP:
        print(f"error: the traffic mux shares RDMA sessions; scheme "
              f"{args.scheme!r} is TCP-based", file=sys.stderr)
        return 2
    if not PROFILES[args.fabric].rdma:
        print(f"error: scheme {args.scheme!r} needs an RDMA fabric",
              file=sys.stderr)
        return 2
    try:
        traffic = TrafficConfig(
            kind=args.kind,
            rate=args.rate,
            duration_s=args.duration_ms * 1e-3,
            n_aggregates=args.aggregates,
            users_per_aggregate=args.users_per_aggregate,
            tenants=_parse_tenants(args.tenant),
            window=args.window,
            sessions=args.sessions,
            queue_watermark=args.watermark,
            admit_rate=args.admit_rate,
            period_s=args.period_ms * 1e-3,
            amplitude=args.amplitude,
            spike_start=args.spike_start_ms * 1e-3,
            spike_end=args.spike_end_ms * 1e-3,
            spike_multiplier=args.spike_multiplier,
            hotspot_skew=getattr(args, "hotspot_skew", False),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config = ExperimentConfig(
        scheme=args.scheme,
        fabric=args.fabric,
        scale=args.scale,
        dataset_size=args.dataset_size,
        server_cores=args.server_cores,
        seed=args.seed,
        n_shards=args.shards,
        traffic=traffic,
        rebalance=_rebalance_from(args),
    )
    users = traffic.total_users
    print(f"open-loop {traffic.kind} traffic: {users:,} virtual users "
          f"over {traffic.n_aggregates} aggregates, "
          f"{traffic.sessions} shared sessions"
          + (f", {args.shards} shards" if args.shards else ""))
    print(TrafficResult.header())
    if args.rate_sweep:
        results = rate_sweep(config, [float(r) for r in args.rate_sweep])
    else:
        results = [run_traffic(config)]
    documents = []
    for result in results:
        print(result.row())
        documents.append(result.metrics)
    _write_metrics(args, documents)
    if args.verbose:
        last = results[-1]
        print(f"\nusers touched: {last.users_touched:,}/{last.users_total:,}")
        print(f"sheds: window={last.shed_window} "
              f"watermark={last.shed_watermark} "
              f"admission={last.shed_admission} server={last.server_shed}")
        for name, stats in sorted(last.per_tenant.items()):
            print(f"tenant {name}: n={stats['count']:.0f} "
                  f"p50={stats['p50_us']:.1f}us p99={stats['p99_us']:.1f}us")
    return 0


def cmd_schemes(_args) -> int:
    print(f"{'scheme':>22} {'transport':>10} {'notify':>8} "
          f"{'offload':>9} {'multi':>6}")
    for name in sorted(SCHEMES):
        spec = SCHEMES[name]
        print(f"{name:>22} {spec.transport:>10} {spec.notification:>8} "
              f"{spec.offload:>9} {str(spec.multi_issue):>6}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Catfish (ICDCS'19) reproduction — simulated "
                    "RDMA R-tree experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("--scheme", default="catfish",
                       choices=sorted(SCHEMES))
    p_run.add_argument("--verbose", "-v", action="store_true")
    p_run.add_argument("--timeline", action="store_true",
                       help="collect and render a cpu/offload timeline")
    p_run.add_argument("--shards", type=int, default=None,
                       help="shard the server across N machines "
                            "(RDMA schemes only; default: the scheme's "
                            "own shard count)")
    p_run.add_argument("--index", default="rtree",
                       choices=INDEXES,
                       help="the index behind the ring buffer; btree "
                            "and cuckoo (paper §VI) serve a zipf "
                            "GET/PUT/SCAN mix over --dataset-size keys")
    p_run.add_argument("--get-fraction", type=float, default=0.9,
                       help="GET share of a btree/cuckoo mix")
    p_run.add_argument("--scan-fraction", type=float, default=0.0,
                       help="range-scan share of a btree mix")
    p_run.add_argument("--zipf", type=float, default=0.99,
                       help="Zipf skew of btree/cuckoo key popularity")
    _add_common_options(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run several schemes")
    p_cmp.add_argument("--schemes", nargs="*",
                       help="schemes to compare (default: the paper's four)")
    _add_common_options(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_chaos = sub.add_parser(
        "chaos",
        help="run named fault-injection scenarios and check "
             "end-to-end resilience invariants",
    )
    p_chaos.add_argument("--list", action="store_true",
                         help="list scenarios and exit")
    p_chaos.add_argument("--scenario", action="append", metavar="NAME",
                         help="scenario to run (repeatable; default: all)")
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument("--clients", type=int, default=None,
                         help="override ChaosConfig.n_clients")
    p_chaos.add_argument("--requests", type=int, default=None,
                         help="override ChaosConfig.requests_per_client")
    p_chaos.add_argument("--dataset-size", type=int, default=None,
                         help="override ChaosConfig.dataset_size")
    p_chaos.add_argument("--verbose", "-v", action="store_true",
                         help="print every invariant, not just failures")
    p_chaos.set_defaults(func=cmd_chaos)

    p_shard = sub.add_parser(
        "shard",
        help="run the sharded catfish cluster and verify the router's "
             "merged results against a single-server oracle",
    )
    p_shard.add_argument("--scheme", default="catfish-sharded",
                         choices=("catfish-sharded", "catfish-bandit"),
                         help="client scheme to run per shard: the "
                              "adaptive Algorithm 1 default or the "
                              "ε-greedy latency bandit")
    p_shard.add_argument("--shards", type=int, default=4,
                         help="number of shard servers (default 4)")
    p_shard.add_argument("--no-verify", action="store_true",
                         help="skip the oracle check (just report "
                              "throughput)")
    p_shard.add_argument("--rebalance", action="store_true",
                         help="enable the elastic shard plane: live "
                              "tile split/merge + item migration under "
                              "an epoch-versioned shard map")
    _add_common_options(p_shard)
    p_shard.set_defaults(func=cmd_shard, workload="mixed")

    p_tr = sub.add_parser(
        "traffic",
        help="open-loop traffic: aggregated clients over a connection "
             "mux, measuring sojourn tails and shed accounting",
    )
    p_tr.add_argument("--scheme", default="fast-messaging-event",
                      choices=sorted(n for n in SCHEMES
                                     if SCHEMES[n].transport != "tcp"))
    p_tr.add_argument("--fabric", default="ib-100g",
                      choices=sorted(PROFILES))
    p_tr.add_argument("--kind", default="poisson",
                      choices=["poisson", "diurnal", "flash-crowd"],
                      help="arrival process")
    p_tr.add_argument("--rate", type=float, default=100_000.0,
                      help="offered arrivals/second (all aggregates)")
    p_tr.add_argument("--rate-sweep", nargs="+", metavar="RATE",
                      default=None,
                      help="run one deployment per offered rate")
    p_tr.add_argument("--duration-ms", type=float, default=4.0,
                      help="offered-load window (simulated ms)")
    p_tr.add_argument("--aggregates", type=int, default=4,
                      help="aggregated client endpoints")
    p_tr.add_argument("--users-per-aggregate", type=int, default=1000,
                      help="virtual users per aggregate")
    p_tr.add_argument("--tenant", action="append", metavar="NAME[:WEIGHT]",
                      help="tenant mix entry (repeatable)")
    p_tr.add_argument("--window", type=int, default=256,
                      help="per-aggregate in-flight bound")
    p_tr.add_argument("--sessions", type=int, default=4,
                      help="shared sessions behind the mux")
    p_tr.add_argument("--watermark", type=int, default=512,
                      help="mux queue-depth shed watermark")
    p_tr.add_argument("--admit-rate", type=float, default=None,
                      help="token-bucket admission rate (default: off)")
    p_tr.add_argument("--period-ms", type=float, default=2.0,
                      help="diurnal period (simulated ms)")
    p_tr.add_argument("--amplitude", type=float, default=0.5,
                      help="diurnal modulation depth [0,1)")
    p_tr.add_argument("--spike-start-ms", type=float, default=1.0)
    p_tr.add_argument("--spike-end-ms", type=float, default=2.0)
    p_tr.add_argument("--spike-multiplier", type=float, default=8.0)
    p_tr.add_argument("--shards", type=int, default=None,
                      help="shard the server across N machines")
    p_tr.add_argument("--rebalance", action="store_true",
                      help="enable the elastic shard plane (needs "
                           "--shards > 1)")
    p_tr.add_argument("--hotspot-skew", action="store_true",
                      help="draw query locations from Zipf hotspots "
                           "instead of uniformly")
    p_tr.add_argument("--scale", default="0.0001",
                      help="query scale ('0.01', 'powerlaw', ...)")
    p_tr.add_argument("--dataset-size", type=int, default=20_000)
    p_tr.add_argument("--server-cores", type=int, default=28)
    p_tr.add_argument("--seed", type=int, default=0)
    p_tr.add_argument("--metrics-out", metavar="PATH", default=None,
                      help="write the catfish-metrics/v1 JSON snapshot "
                           "to PATH")
    p_tr.add_argument("--verbose", "-v", action="store_true",
                      help="print shed/tenant breakdown of the last point")
    p_tr.set_defaults(func=cmd_traffic)

    p_sch = sub.add_parser("schemes", help="list available schemes")
    p_sch.set_defaults(func=cmd_schemes)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
