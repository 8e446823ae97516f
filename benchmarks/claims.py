"""The paper's claims as one table: what each row runs, prints and asserts.

Each row of ``CLAIMS`` is a ``Claim``: one figure of the paper (Figs 2
and 7-14), one ablation, or one beyond-the-paper floor, registered by
decorating its ``check`` with ``@claim(...)`` (the check's docstring is
the row's summary).  ``columns`` holds simulated numbers only, since
``paper.py --write`` copies it into EXPERIMENTS.md; host-clock
predicates are named ``host:...``.  ``benchmarks/paper.py`` runs rows.

The paper runs a 2-million-rectangle tree with up to 256 clients and
10,000 requests per client; that is far beyond what a pure-Python DES can
grind through in a benchmark loop, so the default preset shrinks the
experiment while preserving every qualitative claim:

* the dataset shrinks, and query scales are rescaled by
  ``sqrt(paper_size / dataset_size)`` so the *result-set cardinalities*
  (and hence the CPU-vs-bandwidth balance) stay the paper's;
* the client counts shrink 4x; where the oversubscription ratio matters
  (Fig 7) the server core count shrinks with them so the ratios match the
  paper's exactly;
* heartbeat intervals shrink with the experiment duration so the adaptive
  algorithm sees as many heartbeats as it would in a long run.

``paper.py --scale medium`` (or ``large``) runs bigger presets; rows that
do not read the preset run at one fixed size.
"""

from __future__ import annotations

import inspect
import math
import operator
import random
import time
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from types import SimpleNamespace
from typing import Any, Callable, Dict, Hashable, List, Tuple, Union

from repro import AdaptiveParams, ExperimentConfig
from repro.btree import BTreeOffloadEngine, BTreeService
from repro.chaos import run_scenario
from repro.client import ClientStats, OffloadEngine
from repro.client.node_cache import NodeCacheConfig
from repro.cluster.config import KvMix, RebalanceConfig
from repro.cuckoo import CuckooOffloadEngine, CuckooService
from repro.hw import SERVER_CORES, Host, Nic
from repro.net import ETH_1G, ETH_40G, IB_100G, Network
from repro.rtree import RStarTree, Rect, bulk_load, kernel_name
from repro.rtree import batch as batch_kernels
from repro.rtree.batch import BatchSearchEngine
from repro.server import EVENT, CostModel, FastMessagingServer, RTreeServer
from repro.shard.deploy import ShardedExperimentRunner
from repro.shard.verify import verify_routed_results
from repro.sim import Simulator
from repro.sim.rng import RngRegistry
from repro.traffic import TrafficConfig
from repro.traffic.harness import TrafficRunner, rate_sweep, run_traffic
from repro.traffic.mux import OK
from repro.transport import TcpConnection, connect
from repro.workloads import (PAPER_DATASET_SIZE, generate_rea02,
                             generate_rea02_queries, uniform_dataset,
                             uniform_scale_rect)


@dataclass(frozen=True)
class Preset:
    dataset_size: int
    requests_per_client: int
    #: Client counts standing in for the paper's 32..256 sweep.
    client_sweep: Tuple[int, ...]
    #: Client counts for the paper's Fig 7 (80..320) sweep.
    fig7_sweep: Tuple[int, ...]
    #: Fig 7 server cores, chosen to match the paper's oversubscription.
    fig7_cores: int
    heartbeat_interval: float


PRESETS = {
    "small": Preset(
        dataset_size=40_000,
        requests_per_client=60,
        client_sweep=(8, 16, 32, 64),
        fig7_sweep=(20, 40, 60, 80),
        fig7_cores=7,
        heartbeat_interval=0.25e-3,
    ),
    "medium": Preset(
        dataset_size=200_000,
        requests_per_client=200,
        client_sweep=(16, 32, 64, 128),
        fig7_sweep=(40, 80, 120, 160),
        fig7_cores=14,
        heartbeat_interval=0.5e-3,
    ),
    "large": Preset(
        dataset_size=2_000_000,
        requests_per_client=1000,
        client_sweep=(32, 64, 128, 256),
        fig7_sweep=(80, 160, 240, 320),
        fig7_cores=28,
        heartbeat_interval=2e-3,
    ),
}


def equivalent_scale(paper_scale: float, dataset_size: int) -> float:
    """Rescale a paper query scale to a smaller dataset so the expected
    result count (density x area) is unchanged."""
    return paper_scale * math.sqrt(PAPER_DATASET_SIZE / dataset_size)


def scale_spec(paper_label: str, dataset_size: int) -> str:
    """Map the paper's scale label to a rescaled generator spec."""
    if paper_label == "powerlaw":
        lo = equivalent_scale(1e-5, dataset_size)
        hi = equivalent_scale(1e-2, dataset_size)
        return f"powerlaw:{lo:.8g}:{hi:.8g}"
    return f"{equivalent_scale(float(paper_label), dataset_size):.8g}"


@lru_cache(maxsize=None)
def shared_dataset(size: int) -> list:
    """The preset's uniform tree contents, built once per process."""
    return uniform_dataset(size, seed=0)


def paper_config(p: Preset, scheme: str, fabric: str, n_clients: int,
                 paper_scale: str, **overrides) -> ExperimentConfig:
    """One paper-figure point at preset ``p``: the preset's tree, request
    count and heartbeat, a search workload, Algorithm 1 at the paper's
    N=8 / T=95% and seed 0, unless ``overrides`` say otherwise."""
    fields = dict(
        requests_per_client=p.requests_per_client,
        workload_kind="search",
        dataset=shared_dataset(p.dataset_size),
        dataset_size=p.dataset_size,
        heartbeat_interval=p.heartbeat_interval,
        adaptive=AdaptiveParams(N=8, T=0.95, Inv=p.heartbeat_interval),
        seed=0,
    )
    fields.update(overrides)
    return ExperimentConfig(scheme=scheme, fabric=fabric, n_clients=n_clients,
                            scale=scale_spec(paper_scale, p.dataset_size),
                            **fields)


Point = Union[ExperimentConfig, Callable[[], Any]]
Results = Dict[Hashable, Any]
Table = Tuple[List[str], List[List[str]]]
Check = Tuple[str, bool, str]


@dataclass(frozen=True)
class Claim:
    """One row of the table (see the module docstring)."""

    id: str
    #: "Fig N", "Figs N/M", "ablation" or "beyond the paper".
    source: str
    #: What the row claims, and why it is expected to hold.
    summary: str
    points: Callable[[Preset], Dict[Hashable, Point]]
    columns: Callable[[Results], Table]
    check: Callable[[Results], List[Check]]


CLAIMS: List[Claim] = []


def claim(id: str, source: str, points, columns):
    """Register the decorated ``check(results)`` as one row of
    ``CLAIMS``; its docstring is the row's summary."""
    def register(check):
        CLAIMS.append(Claim(id, source, inspect.getdoc(check), points,
                            columns, check))
        return check
    return register


OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
       ">=": operator.ge, "==": operator.eq}


def cmp(name: str, a, op: str, b, unit: str = "") -> Check:
    """The predicate ``a op b``, both sides printed as its detail."""
    a_, b_ = (f"{x}" if isinstance(x, int) else f"{x:.6g}" for x in (a, b))
    return name, OPS[op](a, b), f"{a_}{unit} {op} {b_}{unit}"


def square_queries(rng, n: int, side: float, lo: float = 0.0,
                   hi: float = 1.0) -> List[Rect]:
    """Fixed query set: ``n`` squares of side ``side``, centres uniform in
    ``[lo, hi]^2`` (x drawn before y), clipped to the unit square."""
    out = []
    for _ in range(n):
        cx, cy = rng.uniform(lo, hi), rng.uniform(lo, hi)
        out.append(Rect(max(cx - side / 2, 0.0), max(cy - side / 2, 0.0),
                        min(cx + side / 2, 1.0), min(cy + side / 2, 1.0)))
    return out


def timed(fn, *args):
    """``fn(*args)`` and the wall-clock seconds it took (host clock)."""
    start = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - start


def counter(result, name: str):
    """One counter of a run's metrics document (0 if it was not kept)."""
    return result.metrics["metrics"].get(name, {}).get("value", 0)


def completed_all(r) -> bool:
    """Every client finished its full request count."""
    return r.total_requests == r.n_clients * r.metrics["meta"][
        "requests_per_client"]


def conserved(result) -> Tuple[bool, str]:
    """Open-loop conservation: arrivals == completed + failed + shed."""
    return (result.completed + result.failed + result.shed_client_total
            == result.arrivals,
            f"{result.arrivals} arrivals, {result.completed} completed, "
            f"{result.failed} failed, {result.shed_client_total} shed")


# -- Paper figures ------------------------------------------------------------

FIG02_CLIENTS = (2, 4, 8, 16, 32)
FIG02_PANELS = {"0.01": ("(a) scale 0.01", "NIC saturated, CPU ≤ 28%"),
                "0.00001": ("(b) scale 1e-5", "CPU 100%, bandwidth 65.8%")}


def _fig02_columns(r):
    n = FIG02_CLIENTS[-1]
    return (["", "paper", f"measured ({n} clients)"], [
        [label, paper, f"**cpu {x.server_cpu_utilization:.1%}, bw_util "
         f"{x.server_bandwidth_utilization:.1%}**, "
         f"{x.throughput_kops:.0f} Kops"]
        for scale, (label, paper) in FIG02_PANELS.items()
        for x in [r[(scale, n)]]])


@claim("fig02", "Fig 2", lambda p: {
    (scale, n): paper_config(p, "tcp", "eth-1g", n, scale)
    for scale in FIG02_PANELS for n in FIG02_CLIENTS}, _fig02_columns)
def fig02(r):
    """Motivation: where are the bottlenecks on TCP/1GbE?

    Reproduces the two panels: server CPU utilization and consumed server
    bandwidth vs the number of clients, for a large-scope workload (paper
    scale 0.01, bandwidth-intensive) and a small-scope workload (paper
    scale 0.00001, CPU-intensive).

    Expected shape: at the large scale the server link saturates
    (bandwidth utilization -> 1) while the CPU stays lightly used; at the
    small scale CPU utilization is the high/limiting resource while
    bandwidth stays well below saturation.
    """
    n = FIG02_CLIENTS[-1]
    a, b = r[("0.01", n)], r[("0.00001", n)]
    return [
        cmp("a.bw_util>0.5", a.server_bandwidth_utilization, ">", 0.5),
        cmp("a.bw_util>cpu_util", a.server_bandwidth_utilization, ">",
            a.server_cpu_utilization),
        cmp("b.cpu_util>bw_util", b.server_cpu_utilization, ">",
            b.server_bandwidth_utilization),
        cmp("b.bw_util<0.9", b.server_bandwidth_utilization, "<", 0.9),
    ]


FIG07_SCHEMES = ("fast-messaging", "fast-messaging-event")


def _fig07_latencies(r, scale, scheme):
    return [r[k].mean_latency_us for k in sorted(r) if k[:2] == (scale, scheme)]


def _fig07_columns(r):
    ns = sorted({n for _s, _m, n in r})
    poll, event = (_fig07_latencies(r, "0.00001", s) for s in FIG07_SCHEMES)
    return (["clients", "polling (paper)", "polling (ours)", "event (paper)",
             "event (ours)"], [
        [f"80→paper / {ns[0]}→ours", "204 µs", f"{poll[0]:.0f} µs",
         "152 µs", f"{event[0]:.0f} µs"],
        [f"320→paper / {ns[-1]}→ours", "3712 µs (18.2x)",
         f"{poll[-1]:.0f} µs ({poll[-1] / poll[0]:.1f}x)", "680 µs (4.5x)",
         f"{event[-1]:.0f} µs ({event[-1] / event[0]:.1f}x)"],
    ])


@claim("fig07", "Fig 7", lambda p: {
    (scale, scheme, n): paper_config(p, scheme, "ib-100g", n, scale,
                                     server_cores=p.fig7_cores)
    for scale in ("0.00001", "0.01")
    for scheme in FIG07_SCHEMES for n in p.fig7_sweep}, _fig07_columns)
def fig07(r):
    """Polling- vs event-based fast messaging under oversubscription.

    The paper runs 80-320 client connections against 28 server cores
    (ratios 2.9x-11.4x) and finds: polling latency grows ~quadratically
    (203 us at 80 clients -> 3712 us at 320, 18x), event-based grows
    ~linearly (152 us -> 680 us, 4.5x).  The preset shrinks client counts
    and cores together so the oversubscription ratios match the paper's
    exactly.  Panel (a) is scale 0.00001 (the CPU-bound panel the paper
    highlights), panel (b) scale 0.01 (the bandwidth-heavier one).
    """
    (poll_a, event_a), (poll_b, event_b) = (
        [_fig07_latencies(r, scale, s) for s in FIG07_SCHEMES]
        for scale in ("0.00001", "0.01"))
    return [
        # Event-based beats polling at every oversubscribed point.
        (f"{panel}.event<polling_everywhere",
         all(e < q for q, e in zip(poll, event)),
         f"polling {poll[-1]:.1f} vs event {event[-1]:.1f} us at the top")
        for panel, poll, event in (("a", poll_a, event_a),
                                   ("b", poll_b, event_b))
    ] + [
        # Polling degrades super-linearly: 4x the clients, >> 4x the
        # latency growth relative to event-based.
        cmp("a.poll_growth>event_growth", poll_a[-1] / poll_a[0], ">",
            event_a[-1] / event_a[0], "x"),
    ]


FIG08_SCALES = ("0.00001", "0.0001", "0.001", "0.01")


def _fig08_reductions(r):
    """Multi-issue latency reduction (%) per scale."""
    single = {s: r[(s, "rdma-offloading")].mean_search_latency_us
              for s in FIG08_SCALES}
    return {s: (single[s] - r[(s, "rdma-offloading-multi")]
                .mean_search_latency_us) / single[s] * 100.0
            for s in FIG08_SCALES}


def _fig08_columns(r):
    red = _fig08_reductions(r)
    return (["scale", "paper reduction", "measured reduction"], [
        [s, "15.13% (max)" if s == "0.01" else "(positive)",
         f"{red[s]:.1f}%" + (" (max)" if red[s] == max(red.values()) else "")]
        for s in FIG08_SCALES])


@claim("fig08", "Fig 8", lambda p: {
    (scale, scheme): paper_config(
        p, scheme, "ib-100g", 1, scale, seed=2,
        requests_per_client=max(200, p.requests_per_client))
    for scale in FIG08_SCALES
    for scheme in ("rdma-offloading", "rdma-offloading-multi")},
    _fig08_columns)
def fig08(r):
    """RDMA offloading with multi-issue.

    One client, four request scales; compare single-issue (one RDMA Read
    per RTT, the baseline) against multi-issue (all intersecting children
    fetched concurrently).  The paper reports latency reductions at every
    scale with the largest (15.13%) at scale 0.01, where nodes have the
    most intersecting children to pipeline.
    """
    red = _fig08_reductions(r)
    detail = ", ".join(f"{s}: {v:.2f}%" for s, v in red.items())
    return [
        # Multi-issue helps at every scale...
        ("gain_at_every_scale", all(v > 0 for v in red.values()), detail),
        # ...and helps most at the largest scale (widest fan-out).
        ("gain_max_at_0.01", red["0.01"] == max(red.values()), detail),
    ]


FIG09_SIZES = tuple(2 ** k for k in (1, 6, 10, 14, 18, 20, 23))  # 2 B-8 MB


def testbed(profile, server_cores=SERVER_CORES):
    """A simulator, a star network and the server host attached to it."""
    sim = Simulator()
    net = Network(sim, profile)
    server = Host(sim, "server", profile, cores=server_cores)
    net.attach_server(server)
    return sim, net, server


def mean_time(sim, n, step):
    """Simulated seconds per ``step()`` (a generator) over ``n``
    back-to-back steps of one client process."""
    def client():
        t0 = sim.now
        for _ in range(n):
            yield from step()
        return (sim.now - t0) / n

    p = sim.process(client())
    sim.run_until_triggered(p)
    return p.value


def transfer_latency(method, size, reps=12):
    """Mean per-chunk latency (s) of ``method``: request(1B) ->
    response(size) ping-pong for TCP, back-to-back one-sided operations
    of ``size`` for RDMA Read / Write."""
    profile = {"tcp-1g": ETH_1G, "tcp-40g": ETH_40G}.get(method, IB_100G)
    sim, net, server = testbed(profile)
    client = Host(sim, "client", profile, cores=2)
    if method.startswith("tcp"):
        conn = TcpConnection(sim, net, client, server)

        def server_proc():
            for _ in range(reps):
                yield conn.server_recv()
                yield from conn.server_send(b"", size)

        def transfer():
            yield from conn.client_send(b"", 1)
            yield conn.client_recv()
        sim.process(server_proc())
    else:
        region = server.memory.register(size + 64, name="blob")
        # A target that accepts writes and serves reads of any size.
        server.memory.bind(region.rkey, SimpleNamespace(
            rdma_write=lambda address, length, payload, now: None,
            rdma_read=lambda address, length, now: b""))
        qp, _ = connect(sim, net, client, server)

        def transfer():
            if method == "rdma-read":
                yield qp.post_read(region.rkey, region.base, size)
            else:
                yield qp.post_write(region.rkey, region.base, b"", size)
    return mean_time(sim, reps, transfer)


FIG09_METHODS = ("tcp-1g", "tcp-40g", "rdma-read", "rdma-write")


def _fig09_columns(r):
    def num(x):
        return f"{x:.2f}" if x < 10 else f"{x:.1f}" if x < 1e4 else f"{x:.0f}"

    big = FIG09_SIZES[-1]
    return ["bytes"] + list(FIG09_METHODS), [
        [str(size)] + [num(r[(m, size)] * 1e6) for m in FIG09_METHODS]
        for size in FIG09_SIZES] + [["Gbps @8M"] + [
            num(big * 8 / r[(m, big)] / 1e9) for m in FIG09_METHODS]]


@claim("fig09", "Fig 9", lambda p: {
    (m, size): partial(transfer_latency, m, size)
    for m in FIG09_METHODS for size in FIG09_SIZES},
    _fig09_columns)
def fig09(r):
    """Communication micro-benchmark.

    Ping-pong transfers (1-byte request, variable-size response) over TCP
    on 1/40 GbE, and perftest-style RDMA Read / RDMA Write streams on
    InfiniBand, for chunk sizes from 2 B to 8 MB.  Reports latency (Fig
    9a, µs) and the asymptotic throughput (Fig 9b).

    Expected shapes: RDMA Write lowest latency; RDMA Read above Write for
    small sizes (it needs a full round trip); TCP/1G worst; all methods
    flat below ~2 KB and bandwidth-limited above.
    """
    def us(m, size):
        return r[(m, size)] * 1e6
    big = FIG09_SIZES[-1]
    return [
        # RDMA Write has the lowest small-transfer latency; Read costs a
        # round trip more; TCP/1G is the worst.
        cmp("64B.write<read", us("rdma-write", 64), "<", us("rdma-read", 64)),
        cmp("64B.read<tcp-40g", us("rdma-read", 64), "<", us("tcp-40g", 64)),
        cmp("64B.tcp-40g<tcp-1g", us("tcp-40g", 64), "<", us("tcp-1g", 64)),
        # Large transfers are bandwidth-limited: RDMA ~100G > 40G > 1G.
        ("8M.tcp-1g>tcp-40g>rdma-write",
         us("tcp-1g", big) > us("tcp-40g", big) > us("rdma-write", big),
         " > ".join(f"{us(m, big):.1f}"
                    for m in ("tcp-1g", "tcp-40g", "rdma-write")) + " us"),
        # TCP latency is flat for small sizes (latency-dominated).
        cmp("tcp-1g_flat_to_64B", us("tcp-1g", 64), "<",
            us("tcp-1g", FIG09_SIZES[0]) * 1.5, " us"),
    ]


#: Figs 10-14 run five lanes (scheme @ fabric) over the client sweep.
LANES = {
    "tcp@1G": ("tcp", "eth-1g", "tcp @1G"),
    "tcp@40G": ("tcp", "eth-40g", "tcp @40G"),
    "fm": ("fast-messaging", "ib-100g", "fast messaging"),
    "offload": ("rdma-offloading", "ib-100g", "rdma offloading"),
    "catfish": ("catfish", "ib-100g", "**catfish**"),
}
GRID_SCALES = {"0.00001": "1e-5", "0.01": "0.01", "powerlaw": "powerlaw"}


def _grid_points(p, workload_kind="search", scales=GRID_SCALES, **kw):
    return {(scale, lane, n): paper_config(p, scheme, fabric, n, scale,
                                           workload_kind=workload_kind, **kw)
            for scale in scales for lane, (scheme, fabric, _l) in LANES.items()
            for n in p.client_sweep}


def _top(r, scale):
    """Every lane's result at the top client count of one scale."""
    n = max(k[2] for k in r if isinstance(k, tuple) and k[0] == scale)
    return {lane: r[(scale, lane, n)] for lane in LANES}


def _kops_and_latency(res):
    cell = f"{res.throughput_kops:.0f} / {res.mean_latency_us:.0f}"
    return f"**{cell}**" if res.scheme == "catfish" else cell


def _grid_columns(r):
    tops = {scale: _top(r, scale) for scale in GRID_SCALES}
    return (["scheme"] + list(GRID_SCALES.values()), [
        [label] + [_kops_and_latency(tops[s][lane]) for s in GRID_SCALES]
        for lane, (_s, _f, label) in LANES.items()])


def _catfish_leads(top, at):
    """Catfish strictly first on throughput and on latency among the
    five lanes at the top client count."""
    out = []
    for name, metric, op in (("kops.catfish_first", "throughput_kops", ">"),
                             ("latency.catfish_lowest", "mean_latency_us",
                              "<")):
        cat = getattr(top["catfish"], metric)
        others = {lane: getattr(x, metric) for lane, x in top.items()
                  if lane != "catfish"}
        rival = (max if op == ">" else min)(others, key=others.get)
        out.append((f"{name}@{at}", OPS[op](cat, others[rival]),
                    f"catfish {cat:.1f} vs {rival} {others[rival]:.1f}"))
    return out


@claim("fig10-11", "Figs 10/11", _grid_points, _grid_columns)
def fig10_11(r):
    """Throughput and latency, 100% search workloads.

    Five schemes (TCP/1G, TCP/40G, fast messaging, RDMA offloading,
    Catfish) swept over client counts at three request scales (0.00001,
    0.01, power law); Fig 10 reports the throughput, Fig 11 the mean
    request latency of the same runs.  Expected shape: Catfish highest
    throughput everywhere; at the small scale the CPU-bound fast
    messaging collapses; at the large scale offloading wastes bandwidth
    and falls behind fast messaging.  Both TCP baselines have
    order-of-magnitude higher latency (kernel path), fast messaging
    degrades sharply with load, RDMA offloading stays flat and low, and
    Catfish tracks the best of both.
    """
    out = []
    for scale, at in GRID_SCALES.items():
        top = _top(r, scale)
        out += _catfish_leads(top, at)
        # TCP over 1 GbE is the worst (paper: up to 24.46x over Catfish).
        out.append(cmp(f"latency.tcp@1G>2x_catfish@{at}",
                       top["tcp@1G"].mean_latency_us, ">",
                       2 * top["catfish"].mean_latency_us, " us"))
    # CPU-bound: fast messaging saturates (it stops scaling between the
    # last two client counts) while Catfish keeps scaling.  The paper's
    # full FM *collapse* below TCP/1G needs the 256-connection
    # oversubscription of the large preset.
    ns = sorted({k[2] for k in r})
    fm, prev = (r[("0.00001", "fm", n)].throughput_kops
                for n in (ns[-1], ns[-2]))
    top = _top(r, "0.01")
    return out + [
        cmp("kops.fm_saturated@1e-5", fm, "<", prev * 1.3),
        cmp("kops.catfish>1.3x_fm@1e-5",
            r[("0.00001", "catfish", ns[-1])].throughput_kops, ">", 1.3 * fm),
        # Bandwidth-hungry offloading cannot help here (paper Fig 10b):
        # fast messaging is preferred.
        cmp("kops.fm>offload@0.01", top["fm"].throughput_kops, ">",
            top["offload"].throughput_kops),
    ]


@claim("fig12-13", "Figs 12/13", partial(_grid_points, workload_kind="hybrid"),
       _grid_columns)
def fig12_13(r):
    """Throughput and latency with 90% search + 10% insert workloads.

    The inserts are at corner-skewed locations (§V-B).  Expected shapes:
    Catfish still leads; RDMA offloading degrades relative to the
    search-only runs because concurrent server-side inserts make
    one-sided reads fail version validation and retry (the paper: "more
    inserts ... the higher probability the clients will find the
    read-write conflict").  Latency follows the search-only trends —
    Catfish low, TCP an order of magnitude higher — plus visible
    degradation of offloading as retry rates rise.
    """
    out = []
    for scale, at in GRID_SCALES.items():
        top = _top(r, scale)
        out += _catfish_leads(top, at) + [
            # Offloading clients now hit read-write conflicts and retry.
            cmp(f"offload.torn_retries>0@{at}", top["offload"].torn_retries,
                ">", 0),
            # The server actually served the write stream.
            cmp(f"catfish.inserts_served>0@{at}",
                top["catfish"].inserts_served, ">", 0),
        ]
    return out


def _rea02_points(p):
    # Scale the region size with the dataset so region structure holds.
    sub = max(500, 20_000 * p.dataset_size // 1_888_012)
    items = generate_rea02(n=p.dataset_size, subregion_objects=sub, seed=14)
    queries = generate_rea02_queries(512, dataset_size=p.dataset_size,
                                     seed=15)
    # The query workload ignores the scale.
    points = _grid_points(p, "queries", ("0.00001",), queries=queries,
                          dataset=items)

    def results_per_query():
        tree = bulk_load(items)
        return [tree.search(q).count for q in queries]
    points["results"] = results_per_query
    return points


def _rea02_columns(r):
    top = _top(r, "0.00001")
    cat = top["catfish"].throughput_kops
    return (["scheme", "Kops / mean µs", "Catfish speedup"], [
        [label, _kops_and_latency(top[lane]), "—" if lane == "catfish"
         else f"{cat / top[lane].throughput_kops:.2f}x"]
        for lane, (_s, _f, label) in LANES.items()])


@claim("fig14", "Fig 14", _rea02_points, _rea02_columns)
def fig14(r):
    """The rea02 real-world dataset.

    Uses the synthetic rea02 stand-in (see DESIGN.md): California street
    segments grouped in ~20k-object sub-regions, queries sized to return
    50-150 (mean ~100) rectangles.  Expected: the same ordering as the
    search-only experiments — Catfish highest throughput and lowest
    latency, TCP an order of magnitude behind.
    """
    counts = r["results"]
    mean = sum(counts) / len(counts)
    return _catfish_leads(_top(r, "0.00001"), "rea02") + [
        # rea02 queries really return ~100 results on average; the band
        # bounds the mean, single queries spread wider.
        ("mean_results_in_50..150", 50 <= mean <= 150,
         f"mean {mean:.1f}, min {min(counts)}, max {max(counts)}"),
    ]


# -- Ablations ----------------------------------------------------------------

#: (N, T) points: the window-base sweep at T=95% and the threshold sweep
#: at N=8 share the paper's N=8 / T=0.95 run.
ADAPTIVE_POINTS = ((1, 0.95), (2, 0.95), (8, 0.95), (32, 0.95), (128, 0.95),
                   (8, 0.75), (8, 0.5))


def _adaptive_columns(r):
    def head(N, T):
        return ("**N=8, T=0.95 (paper)**" if (N, T) == (8, 0.95) else
                f"N={N}" if T == 0.95 else f"T={T}")
    return ([""] + [head(*k) for k in ADAPTIVE_POINTS], [
        ["Kops"] + [f"{r[k].throughput_kops:.0f}" for k in ADAPTIVE_POINTS],
        ["offloaded"] + [f"{r[k].offload_fraction:.1%}"
                         for k in ADAPTIVE_POINTS],
    ])


@claim("adaptive-params", "ablation", lambda p: {
    (N, T): paper_config(
        p, "catfish", "ib-100g", p.client_sweep[-1], "0.00001", seed=4,
        adaptive=AdaptiveParams(N=N, T=T, Inv=p.heartbeat_interval))
    for N, T in ADAPTIVE_POINTS}, _adaptive_columns)
def adaptive_params(r):
    """Sensitivity of Catfish to the Algorithm 1 parameters.

    Not a paper figure; DESIGN.md §6 calls this out.  Sweeps the back-off
    window base N (at T=95%) and the busy threshold T (at N=8) at a
    CPU-saturating operating point and reports throughput / offload
    fraction.

    Expected: very small N reacts too timidly (low offload fraction,
    close to fast-messaging behaviour); very low T offloads eagerly even
    when the server could serve requests faster; the paper's N=8, T=95%
    sits in the sweet spot.
    """
    offload = {k: x.offload_fraction * 100 for k, x in r.items()}
    kops = {k: x.throughput_kops for k, x in r.items()}
    return [
        # Larger windows offload more under sustained saturation.
        cmp("offload(N=128)>offload(N=1)", offload[(128, 0.95)], ">",
            offload[(1, 0.95)], "%"),
        # The paper's N=8 must beat the degenerate no-window case.
        cmp("kops(N=8)>=0.95x_kops(N=1)", kops[(8, 0.95)], ">=",
            kops[(1, 0.95)] * 0.95),
        # Lower thresholds offload at least as much as the strict one.
        cmp("offload(T=0.5)>=offload(T=0.95)", offload[(8, 0.5)], ">=",
            offload[(8, 0.95)], "%"),
    ]


VARIANTS = {
    "catfish": "catfish (full)",
    "catfish-polling": "catfish-polling (no event server)",
    "catfish-single-issue": "catfish-single-issue (no multi-issue)",
    "fast-messaging-event": "fast-messaging-event (no offloading)",
}


@claim("variants", "ablation", lambda p: {
    s: paper_config(p, s, "ib-100g", p.client_sweep[-1], "0.00001", seed=7)
    for s in VARIANTS}, lambda r: (["variant", "kops", "offload"], [
        [label, f"{x.throughput_kops:.0f}", f"{x.offload_fraction:.1%}"]
        for s, label in VARIANTS.items() for x in [r[s]]]))
def variants(r):
    """Which of Catfish's three ingredients buys what?

    DESIGN.md §6 items 2/3: isolate the event-based server and the
    multi-issue traversal by running the scheme-registry variants at the
    CPU-bound operating point:

    * ``catfish``               — full system;
    * ``catfish-polling``       — adaptive + multi-issue, but polling server;
    * ``catfish-single-issue``  — adaptive + event server, one read per RTT;
    * ``fast-messaging-event``  — event server alone, no offloading.
    """
    full, fm_event = r["catfish"], r["fast-messaging-event"]
    return [
        # The event-based server matters: polling Catfish loses throughput.
        cmp("kops.full>polling", full.throughput_kops, ">",
            r["catfish-polling"].throughput_kops),
        # Offloading matters: event-FM alone trails full Catfish.
        cmp("kops.full>fm-event", full.throughput_kops, ">",
            fm_event.throughput_kops),
        # Every variant still offloads except the pure fast-messaging one.
        cmp("offload.fm-event==0", fm_event.offload_fraction, "==", 0.0),
        cmp("offload.full>0", full.offload_fraction, ">", 0.0),
    ]


SELECTORS = {
    "catfish": "Algorithm 1 (latest)",
    "catfish-ewma": "EWMA predUtil",
    "catfish-trend": "trend predUtil",
    "catfish-bandit": "ε-greedy latency bandit",
}


@claim("future-work", "ablation", lambda p: {
    s: paper_config(p, s, "ib-100g", p.client_sweep[-1], "0.00001", seed=9,
                    server_cores=14) for s in SELECTORS},
    lambda r: (["policy", "kops", "offload", "heartbeats"], [
        [label, f"{x.throughput_kops:.0f}", f"{x.offload_fraction:.1%}",
         str(x.heartbeats_sent)]
        for s, label in SELECTORS.items() for x in [r[s]]]))
def future_work(r):
    """The paper's future-work ideas, implemented and measured.

    §V-B observes that under *constant* overload Algorithm 1 keeps
    bouncing clients back to fast messaging (it must probe to learn the
    server is still busy) and suggests (a) smarter utilization prediction
    (§VI) and (b) learned mode selection.  This row compares, at a
    sustained CPU-saturating operating point (14 server cores):

    * ``catfish``        — Algorithm 1 with the paper's predUtil (latest);
    * ``catfish-ewma``   — damped prediction;
    * ``catfish-trend``  — extrapolating prediction;
    * ``catfish-bandit`` — ε-greedy latency bandit (no heartbeats at all).
    """
    bandit = r["catfish-bandit"]
    return [
        # The bandit needs no heartbeats yet stays competitive (within
        # 25%) or better — the paper's conjecture that learning can
        # replace the heuristic under sustained overload.
        cmp("bandit.heartbeats==0", bandit.heartbeats_sent, "==", 0),
        cmp("kops.bandit>0.75x_catfish", bandit.throughput_kops, ">",
            r["catfish"].throughput_kops * 0.75),
        # All policies keep the scheme functional.
        ("all_complete", all(completed_all(x) for x in r.values()),
         ", ".join(f"{s} {x.total_requests}" for s, x in r.items())),
    ]


@claim("skew", "ablation", lambda p: {
    (s, label): paper_config(p, s, "ib-100g", p.client_sweep[-1], "0.00001",
                             workload_kind=kind, insert_fraction=0.2, seed=12)
    for s in ("fast-messaging-event", "rdma-offloading", "catfish")
    for label, kind in (("uniform", "hybrid"), ("skewed", "hybrid-skewed"))},
    lambda r: (["scheme", "searches", "kops", "mean µs", "torn"], [
        [s, label, f"{x.throughput_kops:.0f}", f"{x.mean_latency_us:.1f}",
         str(x.torn_retries)] for (s, label), x in r.items()]))
def skew(r):
    """Skewed access patterns aggravate the bottlenecks.

    The paper's introduction: "such bottlenecks will be further
    aggravated by skew access patterns in real workloads [4]".  This row
    compares the uniform hybrid workload (20% inserts) against one whose
    searches cluster on Zipf hotspots (colliding with the corner-skewed
    insert stream) and checks the aggravation is visible in the
    mechanisms that mediate it:

    * on the server path: read/write lock contention -> higher latency;
    * on the offload path: torn-read retries go up.
    """
    catfish = r[("catfish", "skewed")]
    return [
        # Offloading clients collide with the skewed insert stream more
        # often.
        cmp("offload.torn(skewed)>=torn(uniform)",
            r[("rdma-offloading", "skewed")].torn_retries, ">=",
            r[("rdma-offloading", "uniform")].torn_retries),
        # Catfish still completes everything under skew.
        ("catfish.skewed_complete", completed_all(catfish),
         f"{catfish.total_requests} requests"),
    ]


BUILD_SCALES = (0.001, 0.01, 0.1)


def str_vs_rstar(n_items=8000, n_queries=200):
    """Build an STR and an R*-insert tree over the same data: build wall
    time (host clock), node count, mean nodes visited per search, and
    one broad query's answer from each."""
    items = uniform_dataset(n_items, seed=3)
    str_tree, str_build = timed(bulk_load, items, 32)

    def insert_all(items):
        tree = RStarTree(max_entries=32)
        for rect, i in items:
            tree.insert(rect, i)
        return tree
    rstar, rstar_build = timed(insert_all, items)

    def visits(tree, scale):
        rng = random.Random(4)
        return sum(tree.search(uniform_scale_rect(rng, scale)).nodes_visited
                   for _ in range(n_queries)) / n_queries
    broad = Rect(0.2, 0.2, 0.5, 0.5)
    return {name: {"build_s": build, "nodes": tree.node_count,
                   "visits": {s: visits(tree, s) for s in BUILD_SCALES},
                   "answer": sorted(tree.search(broad).data_ids)}
            for name, tree, build in (("STR", str_tree, str_build),
                                      ("R*", rstar, rstar_build))}


@claim("str-build", "ablation", lambda p: {"trees": str_vs_rstar},
       lambda r: (["metric", "STR", "R*"], [
           ["node count"] + [str(t["nodes"]) for t in r["trees"].values()]
       ] + [[f"visits @ {s}"] + [f"{t['visits'][s]:.2f}"
                                 for t in r["trees"].values()]
            for s in BUILD_SCALES]))
def str_build(r):
    """STR bulk loading vs incremental R* construction.

    DESIGN.md §6 item 5: the harness bulk loads with STR for speed; does
    that change the conclusions?  Compares tree quality (nodes visited
    per search, which drives both server CPU and offload read counts)
    between an STR-built and an R*-insert-built tree over the same data,
    plus build cost.
    """
    str_tree, rstar = r["trees"]["STR"], r["trees"]["R*"]
    return [
        # correctness cross-check on one broad query
        ("same_results", str_tree["answer"] == rstar["answer"],
         f"{len(str_tree['answer'])} ids"),
        # STR must be far cheaper to build...
        cmp("host:str_build_5x_faster", str_tree["build_s"], "<",
            rstar["build_s"] / 5, " s"),
    ] + [
        # ...and of comparable search quality (within 2.5x visits) so
        # using it for the experiment pre-builds does not distort the
        # figures.
        cmp(f"visits_within_2.5x@{s}", str_tree["visits"][s], "<",
            rstar["visits"][s] * 2.5) for s in BUILD_SCALES
    ]


NIC_BUDGETS = (1, 2, 4, 16)


def offload_latency_us(budget, n_items=30_000, n_ops=120):
    """Mean multi-issue search latency (us) of one client whose NIC keeps
    at most ``budget`` reads in flight."""
    sim, net, server_host = testbed(IB_100G, server_cores=8)
    items = uniform_dataset(n_items, seed=13)
    # small nodes -> wide queries fan out over many leaves -> deep waves
    server = RTreeServer(sim, server_host, items, max_entries=16)
    client_host = Host(sim, "client", IB_100G, cores=2)
    client_host.nic = Nic(sim, IB_100G, name="client.nic",
                          max_outstanding_reads=budget)
    qp, _ = connect(sim, net, client_host, server_host)
    # A fast client core (0.2 us/node check): otherwise the client's own
    # arrival processing, not the NIC, caps the useful parallelism at ~2
    # in-flight reads (itself a finding this row surfaced).
    engine = OffloadEngine(sim, qp, server.offload_descriptor(),
                           CostModel(client_node_check=0.2e-6),
                           ClientStats(), multi_issue=True)
    rng = random.Random(14)

    def search():
        s = 0.2  # wide queries: dozens of concurrent leaf fetches
        x, y = rng.uniform(0, 1 - s), rng.uniform(0, 1 - s)
        yield from engine.search(Rect(x, y, x + s, y + s))
    return mean_time(sim, n_ops, search) * 1e6


@claim("nic-budget", "ablation", lambda p: {
    b: partial(offload_latency_us, b) for b in NIC_BUDGETS},
    lambda r: (["budget", "mean µs"],
               [[str(b), f"{r[b]:.2f}"] for b in NIC_BUDGETS]))
def nic_budget(r):
    """Multi-issue vs the NIC's outstanding-read budget.

    Multi-issue posts one RDMA Read per intersecting child, but
    ConnectX-class NICs only keep ~16 reads in flight per QP; beyond that
    the sends queue at the NIC.  This ablation sweeps the per-QP budget
    to show how much hardware parallelism the multi-issue traversal
    actually banks on — and that a budget of 1 degenerates to
    single-issue latency.
    """
    lats = [r[b] for b in NIC_BUDGETS]
    return [
        # More in-flight reads -> faster wide searches, monotonically.
        ("monotone_in_budget", all(a >= b for a, b in zip(lats, lats[1:])),
         " >= ".join(f"{x:.2f}" for x in lats) + " us"),
        # The hardware default (16) buys a solid factor over serialized
        # reads.
        cmp("budget16<0.6x_budget1", r[16], "<", r[1] * 0.6, " us"),
    ]


# -- Beyond the paper ---------------------------------------------------------

def offload_profile(structure, n_items=20_000, n_ops=200):
    """One client GETting random keys one-sidedly from ``structure``."""
    sim, net, server_host = testbed(IB_100G, server_cores=8)
    rng = random.Random(1)
    keys = rng.sample(range(10**6), n_items)
    items = [(k, k + 1) for k in keys]
    if structure == "b+tree":
        service = BTreeService(sim, server_host, items)
        engine_type = BTreeOffloadEngine
    else:
        service = CuckooService(sim, server_host, items, n_buckets=16_384)
        engine_type = CuckooOffloadEngine
    fm_server = FastMessagingServer(sim, service, net, mode=EVENT)
    conn = fm_server.open_connection(Host(sim, "c", IB_100G, cores=2))
    engine = engine_type(sim, conn.client_end, service.offload_descriptor(),
                         service.costs, ClientStats())
    latency = mean_time(sim, n_ops, lambda: engine.get(rng.choice(keys)))
    reads = (engine.chunks_fetched + engine.meta_reads
             if structure == "b+tree" else engine.buckets_fetched)
    return {"latency_us": latency * 1e6, "reads_per_op": reads / n_ops,
            "server_cpu": server_host.cpu.total_work_seconds}


KV_SCHEMES = ("fast-messaging", "rdma-offloading", "catfish")


def _generality_columns(r):
    profiles = [[f"{s} GET, 1 client, offloaded", f"{x['latency_us']:.1f}",
                 f"{x['reads_per_op']:.1f}", "—", "100.0%"]
                for (kind, s), x in r.items() if kind == "profile"]
    storm = [[f"B+tree GET storm, {s}", f"{x.mean_latency_us:.1f}", "—",
              f"{x.throughput_kops:.0f}", f"{x.offload_fraction:.1%}"]
             for (kind, s), x in r.items() if kind == "storm"]
    return ["run", "mean µs", "reads/op", "Kops", "offload"], profiles + storm


@claim("generality", "beyond the paper", lambda p: {
    **{("profile", s): partial(offload_profile, s)
       for s in ("b+tree", "cuckoo")},
    **{("storm", s): ExperimentConfig(
        index="btree", scheme=s, kv=KvMix(get_fraction=1.0, zipf_s=0.0),
        n_clients=24, requests_per_client=120, dataset_size=20_000,
        server_cores=4, heartbeat_interval=0.2e-3, seed=2)
       for s in KV_SCHEMES}},
    _generality_columns)
def generality(r):
    """Framework generality (paper §VI) — B+tree and cuckoo over Catfish.

    Not a paper figure: the paper *claims* the framework generalizes to
    other link-based structures; this row demonstrates it
    quantitatively.

    1. Offload profile per structure (reads per op, one-sided latency).
    2. A miniature Fig-10-style comparison for the B+tree: fast messaging
       vs always-offload vs the adaptive client, under a CPU-saturating
       GET storm (24 clients on a 4-core server).
    """
    cuckoo, btree = r[("profile", "cuckoo")], r[("profile", "b+tree")]
    catfish = r[("storm", "catfish")]
    return [
        # Cuckoo is a single round trip: 2 reads, well under the tree
        # latency.
        cmp("cuckoo.reads_per_op==2", cuckoo["reads_per_op"], "==", 2.0),
        cmp("latency.cuckoo<b+tree", cuckoo["latency_us"], "<",
            btree["latency_us"], " us"),
        # Offloading never touches the server CPU, whatever the structure.
        cmp("offload.server_cpu==0", max(cuckoo["server_cpu"],
                                         btree["server_cpu"]), "==", 0.0),
        cmp("storm.kops.catfish>fm", catfish.throughput_kops, ">",
            r[("storm", "fast-messaging")].throughput_kops),
        ("storm.0<offload.catfish<1", 0.0 < catfish.offload_fraction < 1.0,
         f"{catfish.offload_fraction:.1%}"),
    ]


KV_CLIENTS = (8, 16, 32)
KV_INDEXES = {"btree": "B+tree", "cuckoo": "cuckoo"}


@claim("kv-sweep", "beyond the paper", lambda p: {
    (index, s, n): ExperimentConfig(
        index=index, scheme=s, n_clients=n, requests_per_client=80,
        dataset_size=20_000, server_cores=4, heartbeat_interval=0.2e-3,
        seed=4)
    for index in KV_INDEXES for s in KV_SCHEMES for n in KV_CLIENTS},
    lambda r: (["index"] + list(KV_SCHEMES), [
        [label] + [" / ".join(f"{r[(index, s, n)].throughput_kops:.0f}"
                              for n in KV_CLIENTS) for s in KV_SCHEMES]
        for index, label in KV_INDEXES.items()]))
def kv_sweep(r):
    """The §VI structures under the Fig-10 methodology.

    The figure the paper never had: B+tree and cuckoo GET-heavy workloads
    (zipf-popular keys, 10% writes) swept over client counts, comparing
    fast messaging, always-offload and adaptive Catfish on a 4-core
    server, through the same ``ExperimentConfig`` runs as the R-tree.
    """
    top = KV_CLIENTS[-1]
    return [check for index in KV_INDEXES for check in (
        # adaptive >= fast messaging at saturation for both structures
        cmp(f"kops.catfish>=0.95x_fm@{index}",
            r[(index, "catfish", top)].throughput_kops, ">=",
            r[(index, "fast-messaging", top)].throughput_kops * 0.95),
        # every point completed its full request count
        (f"all_complete@{index}", all(
            completed_all(x) for k, x in r.items() if k[0] == index), ""))]


K_SWEEP = (1, 2, 4, 8)

#: The K=4 / K=1 read-throughput floor.
SCALING_FLOOR = 2.5

#: Saturating read load: 96 closed-loop clients against 2 cores per
#: shard, with result sets big enough that every query costs real CPU
#: *and* NIC bandwidth — the two resources sharding multiplies.  (At
#: K=1 the adaptive clients offload ~80% of reads, so the baseline is
#: bounded by the single server's NIC, not just its cores; smaller
#: loads let offloading absorb the pressure and compress the curve.)
#: The mixed workload is read-only, so throughput == read throughput
#: and every K runs the identical request stream.
SHARD_LOAD = ExperimentConfig(
    scheme="catfish-sharded", fabric="ib-100g", n_clients=96,
    requests_per_client=60, dataset_size=20_000, server_cores=2,
    workload_kind="mixed", scale="0.02", heartbeat_interval=0.25e-3,
    adaptive=AdaptiveParams(N=8, T=0.95, Inv=0.25e-3), seed=0)


def _fanout(result) -> float:
    """Router sub-queries per routed query (1.0 without a router)."""
    issued = counter(result, "router.subqueries_issued")
    routed = counter(result, "router.queries_routed")
    return issued / routed if issued and routed else 1.0


@claim("shard-scaling", "beyond the paper", lambda p: {
    k: replace(SHARD_LOAD, n_shards=k) for k in K_SWEEP},
    lambda r: (["K", "Kops", "speedup", "mean µs", "shard CPU",
                "sub-queries/query"], [
        [str(k), f"{x.throughput_kops:.1f}",
         f"{x.throughput_kops / r[1].throughput_kops:.2f}x",
         f"{x.mean_latency_us:.1f}", f"{x.server_cpu_utilization:.1%}",
         f"{_fanout(x):.2f}"] for k, x in r.items()]))
def shard_scaling(r):
    """Read throughput versus shard count K.

    Sweeps one saturated read workload over K ∈ {1, 2, 4, 8} shard
    servers (same dataset, same clients, same seed; K=1 *is* the
    single-server Catfish baseline — the router degenerates to a
    pass-through).  The clients oversubscribe a deliberately small
    per-shard core count, so the K=1 server saturates both its cores and
    (through the adaptive clients' offloaded reads) its NIC; sharding
    multiplies both resources until the scatter fan-out (a query
    straddling tile borders visits several shards, and kNN visits all of
    them) starts eating the gain.  The acceptance floor: K=4 must deliver
    >= 2.5x the K=1 read throughput.
    """
    base = r[1].throughput_kops
    return [
        cmp(f"kops(K=4)>={SCALING_FLOOR}x_K=1", r[4].throughput_kops, ">=",
            SCALING_FLOOR * base),
        # Monotone through the sweep's saturated region.
        cmp("kops(K=2)>K=1", r[2].throughput_kops, ">", base),
    ]


#: Four closed-loop ``rdma-offloading-multi`` clients on result-bearing
#: queries: the off/on equality checks of the node-cache and batch-search
#: rows then compare real match sets, not two empty ones.
OFFLOAD_LOAD = ExperimentConfig(
    scheme="rdma-offloading-multi", fabric="ib-100g", n_clients=4,
    requests_per_client=200, workload_kind="search", scale="0.01", seed=0)

#: The acceptance floor: cache-enabled repeated searches must post at
#: least this much fewer one-sided chunk reads per search.
REDUCTION_FLOOR = 0.30


def _cache_points(p):
    # Write-storm chaos scenario with the cache enabled: the harness
    # compares every response against the server tree (the oracle).
    # Summed over seeds 0-3: with a cached root, whether the storm trips
    # a breaker depends on the back-off draw, and exactness must not.
    return {**{label: replace(OFFLOAD_LOAD, dataset_size=10_000,
                              node_cache=cache)
               for label, cache in (("off", None), ("on", NodeCacheConfig()))},
            **{("storm", seed): partial(
                run_scenario, "write-storm", seed=seed, n_clients=2,
                requests_per_client=300, dataset_size=2_000,
                node_cache=NodeCacheConfig()) for seed in range(4)}}


def _cache_counts(result):
    """(chunks fetched per offloaded search, results, hits, misses)."""
    return (counter(result, "offload.chunks_fetched")
            / counter(result, "client.offloaded_requests"),
            *(counter(result, name) for name in (
                "client.results_received", "cache.hits", "cache.misses")))


def _cache_columns(r):
    (off, res_off, _h, _m), (on, res_on, _h, _m) = (
        _cache_counts(r[k]) for k in ("off", "on"))
    p50_off, p50_on = r["off"].p50_latency_us, r["on"].p50_latency_us
    return (["", "chunks fetched / search", "p50 µs", "results"], [
        ["cache off", f"{off:.2f}", f"{p50_off:.2f}", str(res_off)],
        ["cache on", f"{on:.2f}", f"{p50_on:.2f}", str(res_on)],
        ["change", f"{on / off - 1:.1%}", f"{p50_off / p50_on:.2f}x faster",
         "identical" if res_on == res_off else "differ"],
    ])


@claim("node-cache", "beyond the paper", _cache_points, _cache_columns)
def node_cache(r):
    """Client-side node cache: RTTs saved and exactness under write storms.

    Two claims, both beyond the paper (RDMAbox-style client caching
    grafted onto the offload path):

    1. **RTT savings** — on a repeated-search workload the cache serves
       the upper tree levels locally, cutting ``offload.chunks_fetched``
       per search by at least 30% (the acceptance floor; typically ~2/3
       for point-ish queries whose traversals are mostly upper levels).
    2. **Exactness** — cache-served searches return exactly what the
       server tree would, including while a write-storm fault toggles
       node versions and concurrent inserts advance the mutation
       high-water mark.
    """
    (off, res_off, _h, _m), (on, res_on, hits, misses) = (
        _cache_counts(r[k]) for k in ("off", "on"))
    storms = [x for k, x in r.items() if k[0] == "storm"]
    return [
        cmp(f"chunk_reduction>={REDUCTION_FLOOR:.0%}", 1 - on / off, ">=",
            REDUCTION_FLOOR),
        # Same workload, same seed: identical result cardinalities.
        cmp("same_results", res_on, "==", res_off),
        ("cache_hits>0", hits > 0, f"hits {hits}, misses {misses}"),
        cmp("storm.oracle_mismatches==0",
            sum(x.mismatches for x in storms), "==", 0),
        ("storm.invariants_green", all(x.ok for x in storms), "; ".join(
            f"seed {x.seed}: {f}" for x in storms for f in x.failures)),
    ]


#: Batched visits/s must beat sequential by at least this factor.
VISITS_SPEEDUP_FLOOR = 2.0
#: Batched end-to-end throughput must beat sequential by this factor.
E2E_SPEEDUP_FLOOR = 1.2

#: Queries per shared-frontier group in the batched search stage.  The
#: amortization factor is bounded by (group size x visits-per-query) /
#: tree size, so the group must be deep enough for queries to overlap;
#: 4096 over the 40k-item tree revisits each hot node ~25x fewer times
#: than sequential search does.
BATCH_GROUP_SIZE = 4096


def scan_stage(dataset_size: int, n_queries: int, repeats: int = 1,
               fallback: bool = False) -> dict:
    """Range scans over one bulk-loaded tree and a fixed stream of
    mid-size queries (a few leaf nodes per search), first one by one (the
    server's scan kernel), then through the cross-query batch engine;
    best-of-``repeats`` wall each (host clock).

    Identical tree, identical query stream; ``visits`` counts the same
    per-query node visits on both sides, so visits/s is directly
    comparable — the batch engine's whole advantage is doing those
    visits as shared (Q x E) matrix evaluations, each tree node scanned
    once per group.  ``fallback`` runs the pure-Python batch kernels even
    when numpy is importable: they must return the same matches and visit
    counts (no throughput floor: the fallback is a correctness path, not
    a fast path).
    """
    tree = bulk_load(uniform_dataset(dataset_size, seed=0))
    queries = square_queries(RngRegistry(0).stream("perf-search"), n_queries,
                             0.02, 0.02, 0.98)

    def sequential():
        return [tree.search(q) for q in queries], None

    def batched():
        engine = BatchSearchEngine(tree)
        return [res for i in range(0, n_queries, BATCH_GROUP_SIZE)
                for res in engine.search_batch(
                    queries[i:i + BATCH_GROUP_SIZE])], engine

    saved = batch_kernels._np_batch
    batch_kernels._np_batch = saved and not fallback
    try:
        out = {"kernel": kernel_name()}
        for name, scan in (("sequential", sequential), ("batched", batched)):
            wall = float("inf")
            for _ in range(repeats):
                (results, engine), elapsed = timed(scan)
                wall = min(wall, elapsed)
            visits = sum(res.nodes_visited for res in results)
            out[name] = {"visits": visits, "visits_per_s": visits / wall,
                         "matches": sum(res.count for res in results),
                         "shared_visits": engine and engine.shared_visits}
    finally:
        batch_kernels._np_batch = saved
    return out


def _e2e(result):
    """(Kops, chunk reads, results) of one end-to-end run."""
    return (result.throughput_kops, counter(result, "offload.chunks_fetched"),
            counter(result, "client.results_received"))


@claim("batch-search", "beyond the paper", lambda p: {
    "engine": partial(scan_stage, 40_000, 10_000, repeats=3),
    "fallback": partial(scan_stage, 20_000, 2_000, fallback=True),
    **{("e2e", label): replace(OFFLOAD_LOAD, dataset_size=20_000,
                               batch_queries=batch)
       for label, batch in (("off", 0), ("on", 8))}},
    lambda r: (["batching", "Kops", "chunk reads", "results"], [
        [label, f"{kops:.1f}", str(chunks), str(results)]
        for label in ("off", "on")
        for kops, chunks, results in [_e2e(r[("e2e", label)])]]))
def batch_search(r):
    """Cross-query batched search: visits/s floor, e2e RTT savings, fallback.

    Three claims, all beyond the paper (SIMD-style scan vectorization
    after Rayhan & Aref, plus cross-query frontier sharing):

    1. **Engine throughput** — the shared-frontier ``BatchSearchEngine``
       sustains at least ``VISITS_SPEEDUP_FLOOR`` x the sequential
       ``RStarTree.search`` visit rate on the same query stream, while
       returning bit-identical per-query results (checked, not assumed).
       Host clock; needs the numpy kernels.
    2. **Offloaded batching** — an ``rdma-offloading-multi`` run with
       ``batch_queries`` grouping outperforms the sequential run of the
       same workload: the shared traversal reads each frontier chunk
       once per group instead of once per query.
    3. **Fallback** — on the pure-Python batch kernels, the engine
       still returns oracle-identical results.
    """
    engine, fallback = r["engine"], r["fallback"]
    seq, bat = engine["sequential"], engine["batched"]
    (kops_off, chunks_off, res_off), (kops_on, chunks_on, res_on) = (
        _e2e(r[("e2e", label)]) for label in ("off", "on"))
    out = [cmp(f"{stage}.same_{field}", scans["batched"][field], "==",
               scans["sequential"][field])
           for stage, scans in (("engine", engine), ("fallback", fallback))
           for field in ("matches", "visits")]
    return out + [
        ("fallback.kernel==python", fallback["kernel"] == "python",
         fallback["kernel"]),
        (f"host:engine.visits_per_s>={VISITS_SPEEDUP_FLOOR:.0f}x",
         bat["visits_per_s"] >= VISITS_SPEEDUP_FLOOR * seq["visits_per_s"],
         f"{seq['visits_per_s']:,.0f} -> {bat['visits_per_s']:,.0f} "
         f"visits/s, {engine['kernel']} kernel, Q={BATCH_GROUP_SIZE}/group"),
        cmp(f"e2e.kops>={E2E_SPEEDUP_FLOOR}x", kops_on, ">=",
            E2E_SPEEDUP_FLOOR * kops_off),
        # Same workload, same seed: batching must not change what is
        # served.
        cmp("e2e.same_results", res_on, "==", res_off),
        cmp("e2e.fewer_chunk_reads", chunks_on, "<", chunks_off),
    ]


def traffic_config(n_shards=None, **traffic_kw) -> ExperimentConfig:
    """The open-loop deployment both open-loop rows drive: 4 sessions
    for 4 aggregates of 1000 users unless ``traffic_kw`` say otherwise."""
    traffic = dict(kind="poisson", duration_s=2e-3, n_aggregates=4,
                   users_per_aggregate=1000, sessions=4, queue_watermark=64,
                   window=256)
    traffic.update(traffic_kw)
    return ExperimentConfig(
        scheme="fast-messaging-event", fabric="ib-100g", dataset_size=2_000,
        seed=0, n_shards=n_shards, traffic=TrafficConfig(**traffic))


#: Recovery bar: rebalanced-skewed tail throughput vs uniform baseline.
RECOVERY_RATIO = 0.70

#: Controller tuning for this row: cycle fast enough to split within the
#: run, demand a clear 2x hot/mean imbalance, and keep the drain short so
#: cleanup does not monopolise the 1-core source shard.
ROW_REBALANCE = RebalanceConfig(interval=0.3e-3, split_ratio=2.0,
                                min_split_items=16, drain_s=0.1e-3)


def rebalance_leg(quadrant: bool, rebalance: bool) -> dict:
    """One K=4 closed-loop leg over a fixed query set, every recorded
    read replayed against a single-tree oracle.

    ``tail_kops`` is the throughput over the second half of the run
    (completions with t >= t_end/2): the splits land early, so the tail
    window measures the plane *after* it adapted, which is the recovery
    claim.
    """
    runner = ShardedExperimentRunner(ExperimentConfig(
        scheme="fast-messaging-event", workload_kind="queries",
        # 400 squares of side 0.03 over the unit square, or over its
        # lower-left quadrant for the skewed legs.
        queries=square_queries(random.Random(7), 400, 0.03,
                               hi=0.5 if quadrant else 1.0), n_clients=8,
        requests_per_client=800, dataset_size=2_000, max_entries=16,
        server_cores=1, n_shards=4, seed=0,
        rebalance=ROW_REBALANCE if rebalance else None), record_results=True)
    extra = runner.run().extra
    t_mid = runner.elapsed_s / 2.0
    late = sum(1 for router in runner.routers
               for (_i, _req, _res, t) in router.log if t >= t_mid)
    return {"tail_kops": late / (runner.elapsed_s - t_mid) / 1e3,
            "splits": int(extra.get("rebalance_splits", 0)),
            "migrations": int(extra.get("rebalance_migrations_completed", 0)),
            "occupancy": [int(extra[f"shard{k}_items"]) for k in range(4)],
            "oracle": verify_routed_results(runner)}


def rebalance_open_loop():
    """The controller under the open-loop harness: Poisson arrivals,
    hotspot-skewed query centres, K=4."""
    runner = TrafficRunner(replace(
        traffic_config(4, rate=200_000.0, hotspot_skew=True),
        max_entries=16, rebalance=ROW_REBALANCE))
    return runner.run(), runner.rebalance_stats


@claim("rebalance", "beyond the paper", lambda p: {
    "uniform": partial(rebalance_leg, False, False),
    "static": partial(rebalance_leg, True, False),
    "rebalanced": partial(rebalance_leg, True, True),
    "open-loop": rebalance_open_loop},
    lambda r: (["leg", "tail Kops", "of uniform", "splits", "migrations",
                "occupancy"], [
        [label, f"{r[leg]['tail_kops']:.1f}",
         f"{r[leg]['tail_kops'] / r['uniform']['tail_kops']:.1%}",
         str(r[leg]["splits"]), str(r[leg]["migrations"]),
         str(r[leg]["occupancy"])] for leg, label in (
             ("uniform", "uniform baseline"), ("static", "skewed, static plane"),
             ("rebalanced", "skewed, rebalanced"))]))
def rebalance(r):
    """Elastic shard plane: skewed throughput recovers after auto-split.

    Three claims, all beyond the paper's static-partition figures:

    1. **Skew recovery** — a K=4 deployment fed quadrant-concentrated
       queries starts with one hot shard.  With the rebalance controller
       on, tile splits + live migration spread the hot quadrant across
       shards and the *tail-window* throughput (second half of the run,
       after the splits land) recovers to >= 70% of the uniform-workload
       baseline.  The static plane stays pinned on the hot shard and
       stays below that bar.  Every logged read still matches a
       single-tree oracle exactly (epoch-aware re-scatter absorbs the
       cut-overs; duplicates from overlapping scatter sets are dropped
       before the client sees them).
    2. **Oracle under churn** — the verification pass replays every
       recorded result against a bulk-loaded reference tree; zero
       mismatches even though queries raced splits, cut-overs, and
       migration drains.
    3. **Open loop** — the same controller under the ``repro.traffic``
       harness (Poisson arrivals, hotspot-skewed query centres, K=4):
       splits fire from live load with open-loop conservation intact
       (arrivals == completed + failed + shed).
    """
    uniform, rebal = r["uniform"]["tail_kops"], r["rebalanced"]
    static = r["static"]["tail_kops"]
    open_loop, stats = r["open-loop"]
    open_splits = int(stats.splits) if stats is not None else 0
    return [
        cmp("splits>0", rebal["splits"], ">", 0),
        cmp("migrations>0", rebal["migrations"], ">", 0),
        cmp(f"tail>={RECOVERY_RATIO:.0%}_uniform", rebal["tail_kops"], ">=",
            RECOVERY_RATIO * uniform, " Kops"),
        # The skew leg must have bite: the static plane stays pinned on
        # the hot shard.
        cmp(f"static_tail<{RECOVERY_RATIO:.0%}_uniform", static, "<",
            RECOVERY_RATIO * uniform, " Kops"),
        cmp("rebalanced>static", rebal["tail_kops"], ">", static, " Kops"),
    ] + [
        # Every recorded read matches the single-tree oracle, on both the
        # churning plane and the static one.
        check for leg in ("rebalanced", "static") for check in (
            (f"oracle_exact.{leg}", r[leg]["oracle"].ok, str(r[leg]["oracle"])),
            cmp(f"oracle_checked.{leg}", r[leg]["oracle"].checked, ">", 0))
    ] + [
        cmp("open_loop.splits>0", open_splits, ">", 0),
        ("open_loop.conserved", *conserved(open_loop)),
        cmp("open_loop.completed>0", open_loop.completed, ">", 0),
    ]


#: Below saturation, achieved must stay within this fraction of offered.
TRACKING_TOLERANCE = 0.15
#: Above saturation, achieved must stop growing: the top rate's achieved
#: throughput may exceed the knee's by at most this factor.
PLATEAU_FACTOR = 1.25
#: The million-user run must finish within this wall-clock budget.
MILLION_USER_WALL_S = 30.0

#: Offered rates (arrivals/s).  The 4-session deployment saturates
#: around ~650k/s (~290k/s before the mux batched queued searches), so
#: the sweep brackets the knee.
SWEEP_RATES = (50_000.0, 150_000.0, 600_000.0, 1_200_000.0)
SWEEP_SUBSATURATED = 2  # first N rates must track offered


def off_offered(result) -> float:
    """How far achieved throughput is from the offered rate (fraction)."""
    return abs(1.0 - result.achieved_rps / result.offered_rps)


@claim("traffic", "beyond the paper", lambda p: {
    "sweep": partial(rate_sweep, traffic_config(), list(SWEEP_RATES)),
    "flash": lambda: [run_scenario("flash-crowd", seed=0) for _ in range(2)],
    "sharded": partial(run_traffic, traffic_config(4, rate=200_000.0)),
    # >= 2^20 virtual users (64 aggregates x 16384), timed.
    "million": partial(timed, run_traffic, traffic_config(
        rate=400_000.0, n_aggregates=64, users_per_aggregate=16_384,
        sessions=8, queue_watermark=256, window=64))},
    lambda r: (["run", "offered/s", "achieved/s", "p50 µs", "p99 µs",
                "p99.9 µs", "shed"], [
        [label, f"{x.offered_rps:,.0f}", f"{x.achieved_rps:,.0f}",
         f"{x.sojourn_p50_us:.1f}", f"{x.sojourn_p99_us:.1f}",
         f"{x.sojourn_p999_us:.1f}", str(x.shed_client_total)]
        for label, x in [("rate sweep", x) for x in r["sweep"]] + [
            ("K=4 sharded", r["sharded"]), ("2^20 users", r["million"][0])]]))
def traffic(r):
    """Tail latency under open-loop load: the repro.traffic acceptance run.

    Four claims, all beyond the paper's closed-loop figures:

    1. **Saturation curve** — sweeping the offered rate over one
       deployment, achieved throughput tracks offered (within tolerance)
       until the service saturates, then plateaus while the mux sheds the
       excess at its queue-depth watermark; sojourn percentiles stay
       ordered (p50 <= p95 <= p99 <= p99.9) and bounded by the watermark
       queue.
    2. **Flash crowd** — the ``flash-crowd`` chaos scenario is green: the
       mux watermark and the server overload guard both shed during the
       spike, shedding stops afterwards, throughput recovers, and the
       whole run replays to a bit-identical fingerprint.
    3. **Sharded** — the same open-loop harness drives a K=4 sharded
       deployment through scatter-gather routers; conservation holds and
       achieved tracks offered at a sub-saturation rate.
    4. **Million users** — >= 2^20 virtual users (64 aggregates x 16384)
       run in bounded wall-clock: aggregation cost scales with
       *arrivals*, not with the user population.
    """
    sweep, sharded = r["sweep"], r["sharded"]
    report, again = r["flash"]
    million, wall = r["million"]
    knee, top = sweep[-2], sweep[-1]
    fired = [n for n, _ok, _d in report.invariants
             if n.startswith("fault-fired:")]
    return [
        ("sweep.conserved", all(conserved(x)[0] for x in sweep), ""),
        ("sweep.sojourn_p50<=p95<=p99<=p999", all(
            x.sojourn_p50_us <= x.sojourn_p95_us <= x.sojourn_p99_us
            <= x.sojourn_p999_us for x in sweep), ""),
        # Sub-saturated points track the offered rate.
        cmp("sweep.tracks_offered_below_knee", max(
            off_offered(x) for x in sweep[:SWEEP_SUBSATURATED]), "<=",
            TRACKING_TOLERANCE),
        # The top rate is past the knee: achieved has plateaued and the
        # watermark is visibly shedding the excess.
        cmp("sweep.plateau", top.achieved_rps, "<=",
            knee.achieved_rps * PLATEAU_FACTOR, "/s"),
        ("sweep.watermark_sheds_more_at_top",
         top.shed_watermark > knee.shed_watermark >= 0,
         f"{knee.shed_watermark} -> {top.shed_watermark}"),
        cmp("sweep.sheds_at_top", top.shed_client_total, ">", 0),
        ("flash.invariants_green", report.ok, "; ".join(report.failures)),
        ("flash.fault_fired>=3", len(fired) >= 3, ", ".join(fired)),
        ("flash.replay_identical", report.fingerprint() == again.fingerprint(),
         report.fingerprint()),
        ("sharded.conserved", *conserved(sharded)),
        cmp("sharded.n_shards==4", sharded.n_shards, "==", 4),
        cmp("sharded.tracks_offered", off_offered(sharded), "<=",
            TRACKING_TOLERANCE),
        cmp("million.users>=1M", million.users_total, ">=", 1_000_000),
        cmp("million.users_touched>0", million.users_touched, ">", 0),
        cmp("million.completed>0", million.completed, ">", 0),
        ("million.conserved", *conserved(million)),
        cmp(f"host:million.wall<={MILLION_USER_WALL_S:.0f}s", wall, "<=",
            MILLION_USER_WALL_S, " s"),
    ]


#: The three read paths the open-arms row races, Catfish first.
ARMS = ("catfish", "rdma-offloading-multi", "fast-messaging-event")
#: Offered rates: below every arm's knee, and past the fast-messaging
#: knee (about 650 000/s at K=4 with 2 cores per shard) and the knee
#: Catfish had while Algorithm 1 sent sub-threshold reads to the server.
ARMS_RATES = {"below": 300_000.0, "past": 1_200_000.0}
#: Catfish's p50 may exceed the better arm's by at most this factor.
ARMS_P50_FACTOR = 1.1
ARMS_DATASET = 40_000


def arms_config(scheme: str, rate: float) -> ExperimentConfig:
    """The bench's open-shard deployment (K=4, 2 cores per shard, 16
    sessions, a 40k-rect tree) for 4 ms of Poisson arrivals."""
    return ExperimentConfig(
        scheme=scheme, fabric="ib-100g", n_shards=4, server_cores=2,
        dataset=shared_dataset(ARMS_DATASET), dataset_size=ARMS_DATASET,
        scale=scale_spec("powerlaw", ARMS_DATASET),
        heartbeat_interval=0.25e-3,
        adaptive=AdaptiveParams(N=8, T=0.95, Inv=0.25e-3), seed=0,
        traffic=TrafficConfig(
            kind="poisson", rate=rate, duration_s=4e-3, n_aggregates=4,
            users_per_aggregate=1000, sessions=16, queue_watermark=512,
            window=1024))


@lru_cache(maxsize=None)
def arms_oracle() -> RStarTree:
    """One bulk-loaded tree over the arms' dataset for every leg."""
    return bulk_load(shared_dataset(ARMS_DATASET))


def arms_leg(scheme: str, rate: float):
    """One recorded open-loop run; returns ``(result, oracle checked,
    oracle mismatches)`` over every completed search."""
    runner = TrafficRunner(arms_config(scheme, rate), record=True)
    result = runner.run()
    oracle = arms_oracle()
    done = [job for job in runner.mux.finished_jobs if job.status == OK]
    mismatches = sum(
        sorted(data_id for _rect, data_id in job.results.results)
        != sorted(oracle.search(job.request.rect).data_ids)
        or not job.results.complete
        for job in done)
    return result, len(done), mismatches


@claim("open-arms", "beyond the paper", lambda p: {
    (leg, scheme): partial(arms_leg, scheme, rate)
    for leg, rate in ARMS_RATES.items() for scheme in ARMS},
    lambda r: (["rate", "scheme", "achieved/s", "p50 µs", "p99 µs", "shed",
                "offloaded", "server CPU"], [
        [f"{rate:,.0f}", scheme, f"{x.achieved_rps:,.0f}",
         f"{x.sojourn_p50_us:.1f}", f"{x.sojourn_p99_us:.1f}",
         str(x.shed_client_total), f"{x.offload_fraction:.0%}",
         f"{x.server_cpu_utilization:.0%}"]
        for leg, rate in ARMS_RATES.items() for scheme in ARMS
        for x in [r[leg, scheme][0]]]))
def open_arms(r):
    """Open loop at K=4: Catfish reads at the faster arm's latency.

    The two fixed arms bracket Catfish: every read offloaded
    (``rdma-offloading-multi``) or every read served by the server
    (``fast-messaging-event``).  Below T Algorithm 1 alone would send
    Catfish's reads to the server; its latency guard takes the arm the
    client measured faster while the heartbeat is live.  So at both
    offered rates, below and past the fast-messaging knee, Catfish's
    p50 sojourn is within 10% of the better fixed arm's.  Every arrival
    is accounted for and every completed search matches a single-tree
    oracle.
    """
    checks = []
    for leg in ARMS_RATES:
        for scheme in ARMS:
            result, checked, mismatches = r[leg, scheme]
            checks += [
                (f"{leg}.{scheme}.conserved", *conserved(result)),
                cmp(f"{leg}.{scheme}.oracle_checked", checked, ">", 0),
                cmp(f"{leg}.{scheme}.oracle_mismatches", mismatches, "==", 0),
            ]
        better = min(r[leg, scheme][0].sojourn_p50_us for scheme in ARMS[1:])
        checks.append(cmp(
            f"{leg}.catfish_p50<={ARMS_P50_FACTOR}x_better_arm",
            r[leg, "catfish"][0].sojourn_p50_us, "<=",
            ARMS_P50_FACTOR * better, " µs"))
    # The fast path's knee sits between the two rates.
    checks.append(cmp("past.fm_sheds>0",
                      r["past", "fast-messaging-event"][0].shed_client_total,
                      ">", 0))
    return checks
