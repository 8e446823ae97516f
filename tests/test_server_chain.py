"""The fast-messaging path as callback chains, against the stepwise model.

The server thread runs each request's op plan and its response writes as
kernel callbacks, and a client's response ring hands each message on as
it lands.  ``tests/stepwise.py`` keeps the generator model they replaced;
here both run the same scripted clients — searches, counts, kNN, inserts,
deletes, updates (some of which find nothing), cuckoo gets, puts into a
full table and overwrites of held keys — under worker crashes and
restarts, overload shedding, tiny rings, heartbeats and request
deadlines, and must agree on every result, every completion instant and
every counter.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.btree.offload import (
    OP_GET,
    OP_PUT,
    KvFmSession,
    KvRequest,
)
from repro.client import ClientStats, FmSession, Request
from repro.client.base import (
    OP_COUNT,
    OP_DELETE,
    OP_INSERT,
    OP_NEAREST,
    OP_SEARCH,
    OP_UPDATE,
)
from repro.client.resilience import RequestTimeoutError, RetryPolicy
from repro.cuckoo.service import CuckooService
from repro.hw import Host
from repro.msg.codec import MAX_SEGMENT_PAYLOAD, MSG_HEADER_SIZE
from repro.net import IB_100G, Network
from repro.rtree import Rect
from repro.server import (
    EVENT,
    POLLING,
    FastMessagingServer,
    HeartbeatService,
    RTreeServer,
)
from repro.sim import Simulator
from repro.workloads import uniform_dataset

from .stepwise import (
    StepwiseFastMessagingServer,
    StepwiseFmSession,
    StepwiseKvFmSession,
)

ITEMS = uniform_dataset(300, seed=11)
#: Scripted gaps are multiples of this (unrelated to the fabric's delays).
QUANTUM = 1.3791e-6
#: A ring that holds one full response segment and little else.
TIGHT_RING = MAX_SEGMENT_PAYLOAD + 2 * MSG_HEADER_SIZE + 64


def _request(index, client, k, spec):
    """Client ``client``'s ``k``-th request, from integers."""
    kind, a, b = spec
    if index == "cuckoo":
        if kind % 3 == 0:
            return KvRequest(OP_GET, key=a % 40)
        if kind % 3 == 1:
            return KvRequest(OP_PUT, key=100 + 50 * client + k, value=b)
        return KvRequest(OP_PUT, key=a % 10, value=b)
    x, y = (a % 97) / 97.0, (b % 89) / 89.0
    side = 0.02 + (a * b % 7) / 10.0
    rect = Rect(x, y, min(1.0, x + side), min(1.0, y + side))
    kind %= 6
    if kind == 0:
        return Request(OP_SEARCH, rect)
    if kind == 1:
        return Request(OP_COUNT, rect)
    if kind == 2:
        return Request(OP_NEAREST, rect, k=1 + a % 5)
    new_id = 10_000 + 100 * client + k
    if kind == 3:
        return Request(OP_INSERT, Rect(x, y, x + 0.001, y + 0.001),
                       data_id=new_id)
    old_rect, old_id = ITEMS[a % len(ITEMS)]
    if kind == 4:
        return Request(OP_DELETE, old_rect, data_id=old_id)
    # Odd b: an id no entry has, so the update finds nothing.
    return Request(OP_UPDATE, old_rect, data_id=old_id if b % 2 else -1,
                   new_rect=Rect(x, y, x + 0.002, y + 0.002))


def _summary(result):
    if isinstance(result, list):
        return [item[1] for item in result]
    return result


def run_world(stepwise, index, mode, cores, ring, shed, retry, beat,
              scripts, crashes):
    """Run the scripted clients; everything a run can observe."""
    sim = Simulator()
    net = Network(sim, IB_100G)
    host = Host(sim, "server", IB_100G, cores=cores)
    net.attach_server(host)
    if index == "rtree":
        service = RTreeServer(sim, host, ITEMS, max_entries=8)
        session_type = StepwiseFmSession if stepwise else FmSession
    else:
        # Four buckets of four slots: puts soon find the table full.
        service = CuckooService(sim, host, [(k, k) for k in range(10)],
                                n_buckets=4)
        session_type = StepwiseKvFmSession if stepwise else KvFmSession
    server_type = StepwiseFastMessagingServer if stepwise \
        else FastMessagingServer
    fm = server_type(sim, service, net, mode=mode, ring_capacity=ring,
                     max_queue_depth=shed)
    heartbeats = None
    if beat:
        heartbeats = HeartbeatService(sim, host.cpu.window_utilization,
                                      interval=beat * QUANTUM)
    sessions, records = [], []
    for client in range(len(scripts)):
        conn = fm.open_connection(Host(sim, f"client{client}", IB_100G))
        sessions.append(session_type(sim, conn, client, ClientStats(),
                                     retry=retry,
                                     rng=random.Random(client)))
        if heartbeats is not None:
            heartbeats.subscribe(conn.response_ring,
                                 lambda hb, c=conn: c.server_post_response(hb))
    if heartbeats is not None:
        heartbeats.start()

    def driver(client, session, script):
        for k, (gap, spec) in enumerate(script):
            if gap:
                yield sim.timeout(gap * QUANTUM)
            request = _request(index, client, k, spec)
            try:
                result = yield from session.execute(request)
            except RequestTimeoutError:
                result = "timed out"
            records.append((client, k, sim.now, _summary(result)))

    def crasher():
        for gap, victim, length in crashes:
            yield sim.timeout(gap * QUANTUM)
            conn = fm.connections[victim % len(fm.connections)]
            fm.crash_worker(conn)
            yield sim.timeout(length * QUANTUM)
            fm.restart_worker(conn)

    for client, session in enumerate(sessions):
        sim.process(driver(client, session, scripts[client]))
    if crashes:
        sim.process(crasher())
    sim.run(until=2e-3)

    served = ("searches_served", "inserts_served", "deletes_served",
              "updates_served", "gets_served", "puts_served",
              "failed_puts")
    return dict(
        records=records,
        served={name: getattr(service, name) for name in served
                if hasattr(service, name)},
        items=service.items_held(),
        server=(int(fm.requests_handled), int(fm.requests_shed),
                int(fm.workers_crashed), int(fm.workers_restarted)),
        cpu=(host.cpu.total_work_seconds, host.cpu.utilization(),
             service.write_tracker.total_writes),
        rings=[(c.request_ring.messages_sent, c.request_ring.messages_received,
                c.response_ring.messages_sent,
                c.response_ring.messages_received,
                c.response_ring.bytes_sent, c.response_ring.high_watermark,
                c.request_ring.high_watermark,
                c.server_channel.wakeups if c.server_channel else None,
                c.mailbox.updates, c.mailbox.value)
               for c in fm.connections],
        clients=[(s.heartbeats_seen, int(s.stats.duplicates_suppressed),
                  int(s.stats.request_timeouts),
                  int(s.stats.ring_full_timeouts)) for s in sessions],
        beats=(int(heartbeats.beats_sent), int(heartbeats.beats_dropped))
        if heartbeats else None,
        events=sim._seq,
    )


_specs = st.tuples(st.integers(0, 11), st.integers(0, 400),
                   st.integers(0, 400))
_script = st.lists(st.tuples(st.integers(0, 12), _specs), max_size=12)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(index=st.sampled_from(["rtree", "rtree", "cuckoo"]),
       mode=st.sampled_from([EVENT, EVENT, POLLING]),
       cores=st.integers(1, 3),
       ring=st.sampled_from([256 * 1024, TIGHT_RING]),
       shed=st.one_of(st.none(), st.integers(1, 2)),
       retry=st.one_of(st.none(), st.builds(
           RetryPolicy, deadline_s=st.sampled_from([25e-6, 60e-6]),
           max_attempts=st.integers(1, 3), backoff_base_s=st.just(3e-6))),
       beat=st.one_of(st.none(), st.integers(3, 40)),
       scripts=st.lists(_script, min_size=1, max_size=6),
       crashes=st.lists(st.tuples(st.integers(0, 60), st.integers(0, 3),
                                  st.integers(1, 80)), max_size=3))
def test_chains_match_the_stepwise_model(index, mode, cores, ring, shed,
                                         retry, beat, scripts, crashes):
    world = dict(index=index, mode=mode, cores=cores, ring=ring, shed=shed,
                 retry=retry, beat=beat, scripts=scripts, crashes=crashes)
    chained = run_world(False, **world)
    stepwise = run_world(True, **world)
    assert chained.pop("events") <= stepwise.pop("events")
    assert chained == stepwise


def test_one_search_on_an_idle_server_costs_fourteen_queue_entries():
    world = dict(index="rtree", mode=EVENT, cores=2, ring=256 * 1024,
                 shed=None, retry=None, beat=None,
                 scripts=[[(0, (0, 50, 50))]], crashes=[])
    chained = run_world(False, **world)
    stepwise = run_world(True, **world)
    assert chained["records"] == stepwise["records"]
    # Per request: the request write (5: post + WQE, serialization, the
    # landing, the ACK's serialization and its arrival), the channel wake
    # and the wake-up delay (2), the search's and the response's CPU
    # charges (2), the response write (5).  The writes' completions, the
    # read-lock grants (one per tree level visited, seven here) and the
    # three steps of the response's delivery (ring get, receiver, the
    # request's segment get) are hops; stepwise each is an entry.  Around
    # the request, on both sides: the driver's Initialize, the worker's
    # start, and one more wake-up once the worker idles — its own send
    # completion notified the channel.  Stepwise also starts a receiver.
    assert chained["events"] == 3 + 14
    assert stepwise["events"] == 4 + 14 + 7 + 3
