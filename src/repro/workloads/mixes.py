"""Workload mixes: the request streams each simulated client executes.

The paper's evaluations use three mixes:

* 100% search at a given scale (Figs 10/11);
* 90% search + 10% insert, inserts at corner-skewed locations (Figs 12/13);
* rea02 queries (Fig 14).

The §VI B+tree and cuckoo indexes run :func:`kv_mix` instead.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Callable, List, Sequence

from ..btree import OP_GET, OP_PUT, OP_SCAN, KvRequest
from ..client.base import (
    OP_COUNT,
    OP_DELETE,
    OP_INSERT,
    OP_NEAREST,
    OP_SEARCH,
    Request,
)
from ..rtree.geometry import Rect
from .datasets import skewed_insert_rect
from .scales import scale_generator
from .skew import HotspotQueries, ZipfSampler

#: Inserted rectangles get ids far above any dataset id.
INSERT_ID_BASE = 1 << 40

#: Key-space width of one B+tree range scan.
SCAN_SPAN = 200


#: One rectangle per call, drawn from the client's generator.
RectSource = Callable[[random.Random], Rect]


def search_stream(rng: random.Random, next_rect: RectSource,
                  n_requests: int) -> List[Request]:
    """100% search over rectangles drawn from ``next_rect``.

    With Zipf-hotspot centres this is the skew regime of the paper's
    intro ("further aggravated by skew access patterns in real
    workloads"): a few regions absorb most of the load, which on a
    sharded plane melts the shard owning them — the workload the
    rebalance controller exists for.
    """
    return [Request(OP_SEARCH, next_rect(rng)) for _ in range(n_requests)]


def write_mix(
    rng: random.Random,
    scale_gen,
    next_rect: RectSource,
    n_requests: int,
    client_id: int,
    insert_fraction: float = 0.1,
    delete_fraction: float = 0.0,
) -> List[Request]:
    """Searches over ``next_rect`` mixed with inserts and deletes.

    Per the paper (Figs 12/13), an insert rectangle takes its size from
    ``scale_gen`` but its location from the corner power law.  A delete
    targets one of this client's own earlier inserts, so on a
    synchronous client it is guaranteed to exist when it runs; with
    deletes as frequent as inserts the tree size stays roughly stable
    (the churn workload).  Each request draws one roll: below
    ``insert_fraction`` it inserts, below ``insert_fraction +
    delete_fraction`` it deletes, else it searches; a delete roll while
    the client has no live insert also searches.
    """
    if insert_fraction < 0 or delete_fraction < 0 or (
        insert_fraction + delete_fraction > 1.0
    ):
        raise ValueError(
            f"bad fractions insert={insert_fraction} delete={delete_fraction}"
        )
    requests: List[Request] = []
    next_insert_id = INSERT_ID_BASE + (client_id << 24)
    live: List[Request] = []  # this client's not-yet-deleted inserts
    for _ in range(n_requests):
        roll = rng.random()
        if roll < insert_fraction:
            template = scale_gen.next_rect(rng)
            scale = max(template.width, template.height, 1e-9)
            rect = skewed_insert_rect(rng, scale)
            request = Request(OP_INSERT, rect, data_id=next_insert_id)
            next_insert_id += 1
            live.append(request)
            requests.append(request)
        elif roll < insert_fraction + delete_fraction and live:
            victim = live.pop(rng.randrange(len(live)))
            requests.append(
                Request(OP_DELETE, victim.rect, data_id=victim.data_id)
            )
        else:
            requests.append(Request(OP_SEARCH, next_rect(rng)))
    return requests


def mixed_read_mix(
    rng: random.Random,
    scale_gen,
    n_requests: int,
    count_fraction: float = 0.15,
    nearest_fraction: float = 0.15,
    k: int = 5,
) -> List[Request]:
    """Read-only mix of range searches, window counts and kNN queries.

    Read-only by construction so a bulk-loaded single tree stays an exact
    oracle for the whole run — the verification workload of
    ``repro shard`` and the sharded router tests.
    """
    requests: List[Request] = []
    for _ in range(n_requests):
        roll = rng.random()
        rect = scale_gen.next_rect(rng)
        if roll < count_fraction:
            requests.append(Request(OP_COUNT, rect))
        elif roll < count_fraction + nearest_fraction:
            requests.append(Request(OP_NEAREST, rect, k=k))
        else:
            requests.append(Request(OP_SEARCH, rect))
    return requests


def query_stream(queries: Sequence[Rect], rng: random.Random,
                 n_requests: int) -> List[Request]:
    """Sample ``n_requests`` searches from a fixed query set (rea02)."""
    if not queries:
        raise ValueError("empty query set")
    return [
        Request(OP_SEARCH, queries[rng.randrange(len(queries))])
        for _ in range(n_requests)
    ]


def kv_mix(rng: random.Random, keys: Sequence[int], sampler: ZipfSampler,
           n_requests: int, mix) -> List[KvRequest]:
    """One client's GET/PUT/SCAN stream over Zipf-popular ``keys``
    (``mix`` is a :class:`~repro.cluster.config.KvMix`)."""
    requests: List[KvRequest] = []
    for _ in range(n_requests):
        roll = rng.random()
        key = keys[sampler.sample(rng)]
        if roll < mix.get_fraction:
            requests.append(KvRequest(OP_GET, key=key))
        elif roll < mix.get_fraction + mix.scan_fraction:
            requests.append(KvRequest(
                OP_SCAN, lo=key, hi=key + SCAN_SPAN,
                max_results=256,
            ))
        else:
            requests.append(KvRequest(OP_PUT, key=key,
                                      value=rng.randrange(1 << 30)))
    return requests


def batch_runs(requests: Sequence[Request], batch_size: int):
    """Group consecutive searches into batches of up to ``batch_size``.

    Yields request groups preserving program order: runs of
    ``OP_SEARCH`` are chunked into batch-sized groups for the batched
    read path; every other op rides alone, so writes (and the reads
    after them) keep their ordering relative to the searches around
    them — a batch never spans a write.
    """
    if batch_size < 2:
        for request in requests:
            yield [request]
        return
    run: List[Request] = []
    for request in requests:
        if request.op == OP_SEARCH:
            run.append(request)
            if len(run) == batch_size:
                yield run
                run = []
        else:
            if run:
                yield run
                run = []
            yield [request]
    if run:
        yield run


WorkloadFn = Callable[[int, random.Random], List[Request]]

#: The rectangle workload kinds :func:`make_workload` builds, and what
#: one client's stream holds.
WORKLOAD_KINDS = {
    "search": "100% search",
    "search-skewed": "100% search centred on Zipf hotspots",
    "hybrid": "search + insert_fraction corner-skewed inserts (Figs 12/13)",
    "hybrid-skewed": "hybrid, its searches centred on Zipf hotspots",
    "churn": "hybrid + as many deletes of the client's own inserts",
    "mixed": "read-only range search, window count and kNN",
    "queries": "searches sampled from a fixed query set (rea02, Fig 14)",
}


def make_workload(
    kind: str,
    scale_spec: str = "0.00001",
    n_requests: int = 1000,
    insert_fraction: float = 0.1,
    queries: Sequence[Rect] = (),
) -> WorkloadFn:
    """Build a per-client workload factory for one of
    :data:`WORKLOAD_KINDS`.

    The returned callable takes ``(client_id, rng)`` and produces that
    client's request list.
    """
    if kind not in WORKLOAD_KINDS:
        raise ValueError(f"unknown workload kind {kind!r}")
    if kind == "queries":
        frozen = list(queries)
        return lambda client_id, rng: query_stream(frozen, rng, n_requests)
    gen = scale_generator(scale_spec)
    if kind == "mixed":
        return lambda client_id, rng: mixed_read_mix(rng, gen, n_requests)
    next_rect: RectSource = gen.next_rect
    if kind.endswith("-skewed"):
        hotspots = HotspotQueries(seed=0)  # shared across all clients
        next_rect = partial(hotspots.next_rect, scale_gen=gen)
    if kind.startswith("search"):
        return lambda client_id, rng: search_stream(rng, next_rect,
                                                    n_requests)
    delete_fraction = insert_fraction if kind == "churn" else 0.0
    return lambda client_id, rng: write_mix(
        rng, gen, next_rect, n_requests, client_id, insert_fraction,
        delete_fraction,
    )


def make_kv_workload(keys: Sequence[int], mix,
                     n_requests: int) -> WorkloadFn:
    """The per-client :func:`kv_mix` factory over a B+tree / cuckoo
    index's loaded ``keys``."""
    sampler = ZipfSampler(len(keys), mix.zipf_s)
    return lambda client_id, rng: kv_mix(rng, keys, sampler, n_requests,
                                         mix)
