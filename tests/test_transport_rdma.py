"""Unit tests for the RDMA verbs model."""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.hw import Host, MemoryError_, Nic
from repro.net import IB_100G, Network
from repro.net.wire import IB_ACK_SIZE, IB_READ_REQUEST_SIZE, ib_wire_size
from repro.sim import Resource, Simulator
from repro.transport import CompletionChannel, RdmaError, connect
from repro.transport.rdma import QpEndpoint


class FakeMemoryTarget:
    """Minimal rdma_read/rdma_write target for transport tests."""

    def __init__(self):
        self.cells = {}
        self.write_log = []
        self.read_log = []

    def rdma_write(self, address, length, payload, now):
        self.cells[address] = payload
        self.write_log.append((address, length, payload, now))

    def rdma_read(self, address, length, now):
        self.read_log.append((address, length, now))
        return self.cells.get(address, b"\x00" * length)


class LoggedChannel(CompletionChannel):
    """A completion channel that notes the instant of every notification."""

    def __init__(self, sim):
        super().__init__(sim)
        self.log = []

    def notify(self):
        self.log.append(self.sim.now)
        super().notify()


def make_rdma_pair():
    sim = Simulator()
    net = Network(sim, IB_100G)
    server = Host(sim, "server", IB_100G)
    client = Host(sim, "client", IB_100G, cores=2)
    net.attach_server(server)
    region = server.memory.register(1 << 20, name="test")
    target = FakeMemoryTarget()
    server.memory.bind(region.rkey, target)
    client_qp, server_qp = connect(sim, net, client, server)
    return sim, net, server, client, region, target, client_qp, server_qp


def test_write_lands_at_remote_target():
    sim, net, server, client, region, target, cqp, sqp = make_rdma_pair()

    def proc():
        yield cqp.post_write(region.rkey, region.base, b"hello", 5)

    sim.process(proc())
    sim.run()
    assert target.cells[region.base] == b"hello"


def test_write_completion_notifies_the_poster():
    sim, net, server, client, region, target, cqp, sqp = make_rdma_pair()
    cqp.channel = LoggedChannel(sim)

    def proc():
        value = yield cqp.post_write(region.rkey, region.base, b"x", 1)
        return value, sim.now

    p = sim.process(proc())
    sim.run()
    value, acked = p.value
    assert value is None
    assert cqp.channel.log == [acked]


def test_write_with_imm_notifies_remote_channel():
    sim, net, server, client, region, target, cqp, sqp = make_rdma_pair()
    cqp.channel, sqp.channel = LoggedChannel(sim), LoggedChannel(sim)

    def proc():
        yield cqp.post_write(region.rkey, region.base, b"req", 3, imm=77)
        return sim.now

    p = sim.process(proc())
    sim.run()
    landed = target.write_log[0][3]
    assert sqp.channel.log == [landed]  # the RECV_IMM, as the data lands
    assert cqp.channel.log == [p.value]  # then the ACK, at home
    assert landed < p.value


def test_plain_write_does_not_notify_remote():
    sim, net, server, client, region, target, cqp, sqp = make_rdma_pair()
    sqp.channel = LoggedChannel(sim)

    def proc():
        yield cqp.post_write(region.rkey, region.base, b"silent", 6)

    sim.process(proc())
    sim.run()
    assert sqp.channel.log == []


def test_imm_write_wakes_completion_channel():
    sim, net, server, client, region, target, cqp, sqp = make_rdma_pair()
    channel = CompletionChannel(sim)
    sqp.channel = channel
    woken = []

    def server_proc():
        yield channel.wait()
        woken.append(sim.now)

    def client_proc():
        yield cqp.post_write(region.rkey, region.base, b"r", 1, imm=1)

    sim.process(server_proc())
    sim.process(client_proc())
    sim.run()
    assert woken == [target.write_log[0][3]]
    assert channel.wakeups == 1


def test_read_notifies_the_posting_end_when_its_data_arrives():
    sim, net, server, client, region, target, cqp, sqp = make_rdma_pair()
    cqp.channel, sqp.channel = LoggedChannel(sim), LoggedChannel(sim)

    def proc():
        yield cqp.post_read(region.rkey, region.base, 64)
        return sim.now

    p = sim.process(proc())
    sim.run()
    assert cqp.channel.log == [p.value]
    assert sqp.channel.log == []  # a read never involves the remote side


def test_faulted_verbs_notify_as_the_work_completion_rule_says():
    # A write that faults at the target still completes (in error) at the
    # poster when the ACK arrives, but lands no RECV_IMM on the peer; a
    # read that faults fails its event and completes nothing.
    sim, net, server, client, region, target, cqp, sqp = make_rdma_pair()
    cqp.channel, sqp.channel = LoggedChannel(sim), LoggedChannel(sim)

    def proc():
        outcomes = []
        for post in (lambda: cqp.post_write(999, region.base, b"x", 1, imm=5),
                     lambda: cqp.post_read(region.rkey, region.end, 64)):
            try:
                yield post()
            except MemoryError_:
                outcomes.append(sim.now)
        return outcomes

    p = sim.process(proc())
    sim.run()
    write_failed, _read_failed = p.value
    assert cqp.channel.log == [write_failed]
    assert sqp.channel.log == []


def test_read_returns_remote_data():
    sim, net, server, client, region, target, cqp, sqp = make_rdma_pair()
    target.cells[region.base + 64] = b"node-bytes"

    def proc():
        data = yield cqp.post_read(region.rkey, region.base + 64, 10)
        return data

    p = sim.process(proc())
    sim.run()
    assert p.value == b"node-bytes"


def test_read_consumes_zero_remote_cpu():
    sim, net, server, client, region, target, cqp, sqp = make_rdma_pair()

    def proc():
        for _ in range(50):
            yield cqp.post_read(region.rkey, region.base, 4096)

    sim.process(proc())
    sim.run()
    assert server.cpu.total_work_seconds == 0.0
    assert server.cpu.utilization() == 0.0


def test_write_consumes_zero_remote_cpu():
    sim, net, server, client, region, target, cqp, sqp = make_rdma_pair()

    def proc():
        for _ in range(50):
            yield cqp.post_write(region.rkey, region.base, b"x" * 256, 256,
                                 imm=1)

    sim.process(proc())
    sim.run()
    assert server.cpu.total_work_seconds == 0.0


def test_read_latency_exceeds_write_latency():
    """RDMA Read needs a full round trip; Write completes one-way faster
    at the remote (paper Fig 9a shows Read > Write for small sizes)."""
    sim, net, server, client, region, target, cqp, sqp = make_rdma_pair()

    def write_then_read():
        t0 = sim.now
        yield cqp.post_write(region.rkey, region.base, b"x", 8)
        write_rtt = sim.now - t0
        t1 = sim.now
        yield cqp.post_read(region.rkey, region.base, 8)
        read_rtt = sim.now - t1
        return write_rtt, read_rtt

    p = sim.process(write_then_read())
    sim.run()
    write_rtt, read_rtt = p.value
    assert read_rtt > 0
    # Data lands at the remote after ~one-way for writes; the ACK overlaps
    # nothing here so compare the remote-visible latency instead:
    data_landing = target.write_log[0][3]
    assert data_landing < read_rtt


def test_small_write_latency_is_microseconds():
    """Calibration: small RDMA Write lands in ~1-3 us (paper Fig 9)."""
    sim, net, server, client, region, target, cqp, sqp = make_rdma_pair()

    def proc():
        yield cqp.post_write(region.rkey, region.base, b"y" * 16, 16)

    sim.process(proc())
    sim.run()
    landing = target.write_log[0][3]
    assert 0.5e-6 < landing < 3e-6


def test_read_out_of_bounds_fails():
    sim, net, server, client, region, target, cqp, sqp = make_rdma_pair()

    def proc():
        try:
            yield cqp.post_read(region.rkey, region.end, 64)
        except MemoryError_:
            return "fault"

    p = sim.process(proc())
    sim.run()
    assert p.value == "fault"


def test_write_bad_rkey_fails():
    sim, net, server, client, region, target, cqp, sqp = make_rdma_pair()

    def proc():
        try:
            yield cqp.post_write(999, region.base, b"x", 1)
        except MemoryError_:
            return "fault"

    p = sim.process(proc())
    sim.run()
    assert p.value == "fault"


def test_unbound_region_read_fails():
    sim, net, server, client, region, target, cqp, sqp = make_rdma_pair()
    bare = server.memory.register(4096, name="unbound")

    def proc():
        try:
            yield cqp.post_read(bare.rkey, bare.base, 8)
        except RdmaError:
            return "no-target"

    p = sim.process(proc())
    sim.run()
    assert p.value == "no-target"


def test_outstanding_read_limit_serializes_excess():
    sim, net, server, client, region, target, cqp, sqp = make_rdma_pair()
    limit = client.nic.max_outstanding_reads
    n = limit + 4

    def proc():
        events = [
            cqp.post_read(region.rkey, region.base, 64) for _ in range(n)
        ]
        for ev in events:
            yield ev

    sim.process(proc())
    sim.run()
    assert len(target.read_log) == n
    # snapshot times: the first `limit` can be concurrent, the rest later
    times = sorted(t for _a, _l, t in target.read_log)
    assert times[-1] > times[0]


def test_concurrent_reads_pipeline():
    """Multi-issue foundation: k concurrent reads finish much faster than
    k sequential reads (paper Fig 8)."""
    sim, net, server, client, region, target, cqp, sqp = make_rdma_pair()
    k = 8

    def sequential():
        t0 = sim.now
        for _ in range(k):
            yield cqp.post_read(region.rkey, region.base, 4096)
        return sim.now - t0

    def concurrent():
        t0 = sim.now
        events = [cqp.post_read(region.rkey, region.base, 4096)
                  for _ in range(k)]
        for ev in events:
            yield ev
        return sim.now - t0

    p_seq = sim.process(sequential())
    sim.run()
    seq_time = p_seq.value

    sim2, net2, server2, client2, region2, target2, cqp2, sqp2 = make_rdma_pair()

    def concurrent2():
        t0 = sim2.now
        events = [cqp2.post_read(region2.rkey, region2.base, 4096)
                  for _ in range(k)]
        for ev in events:
            yield ev
        return sim2.now - t0

    p_con = sim2.process(concurrent2())
    sim2.run()
    con_time = p_con.value
    assert con_time < seq_time * 0.6


# -- equivalence with the stepwise generator model ---------------------------
# The verbs used to run as one process per op over a generator link
# transfer, one queue entry per delay.  That model is kept here, verbatim
# but for names, as the reference: the callback chains must reproduce its
# completion times, channel notification instants, DMA instants and
# link byte counts exactly.

def ref_link_transfer(link, nbytes):
    """The generator ``Link.transfer`` (completes on last-byte arrival),
    its transmitter a capacity-1 :class:`Resource` kept on the link."""
    sim = link.sim
    if link.fault_hook is not None:
        penalty = link.fault_hook()
        if penalty > 0.0:
            yield sim.timeout(penalty)
    if not hasattr(link, "ref_tx"):
        link.ref_tx = Resource(sim, capacity=1)
    req = link.ref_tx.request()
    try:
        yield req
        yield sim.timeout(nbytes / link._bytes_per_s)
        link.total_bytes += nbytes
    finally:
        req.release()
    yield sim.timeout(link.latency_s)


def ref_transfer(network, src, dst, wire_bytes):
    if dst is network.server_host:
        return ref_link_transfer(network.server_link.rx, wire_bytes)
    assert src is network.server_host
    return ref_link_transfer(network.server_link.tx, wire_bytes)


class RefQp(QpEndpoint):
    """A queue pair whose verbs run the stepwise generator model."""

    def post_write(self, rkey, remote_addr, payload, length, imm=None):
        self._check_alive()
        done = self.sim.event()
        self.sim.process(self._do_write(rkey, remote_addr, payload, length,
                                        imm, done))
        return done

    def post_read(self, rkey, remote_addr, length):
        self._check_alive()
        done = self.sim.event()
        self.sim.process(self._do_read(rkey, remote_addr, length, done))
        return done

    def post_read_batch(self, reads):
        self._check_alive()
        events = []
        for i, (rkey, remote_addr, length) in enumerate(reads):
            done = self.sim.event()
            self.sim.process(self._do_read(rkey, remote_addr, length, done,
                                           charge_post_overhead=(i == 0)))
            events.append(done)
        return events

    def _notify(self):
        if self.channel is not None:
            self.channel.notify()

    def _do_write(self, rkey, remote_addr, payload, length, imm, done):
        sim = self.sim
        profile = self.network.profile
        wqe_s = profile.rdma_nic_processing_s
        yield sim.timeout(profile.rdma_post_overhead_s)
        self.local.nic.ops_processed += 1
        yield sim.timeout(wqe_s)
        yield from ref_transfer(self.network, self.local, self.remote,
                                ib_wire_size(length))
        self.remote.nic.ops_processed += 1
        yield sim.timeout(wqe_s)
        error = None
        try:
            target = self._validated_target(rkey, remote_addr, max(length, 1))
            target.rdma_write(remote_addr, length, payload, sim.now)
        except Exception as exc:
            error = exc
        if error is None and imm is not None:
            self.peer._notify()
        yield from ref_transfer(self.network, self.remote, self.local,
                                IB_ACK_SIZE)
        self._notify()
        if error is None:
            done.succeed()
        else:
            done.fail(error)

    def _do_read(self, rkey, remote_addr, length, done,
                 charge_post_overhead=True):
        sim = self.sim
        profile = self.network.profile
        wqe_s = profile.rdma_nic_processing_s
        if charge_post_overhead:
            yield sim.timeout(profile.rdma_post_overhead_s)
        local_nic = self.local.nic
        if not hasattr(local_nic, "ref_slots"):
            local_nic.ref_slots = Resource(
                sim, capacity=local_nic.max_outstanding_reads)
        slot = local_nic.ref_slots.request()
        yield slot
        try:
            local_nic.ops_processed += 1
            yield sim.timeout(wqe_s)
            yield from ref_transfer(self.network, self.local, self.remote,
                                    IB_READ_REQUEST_SIZE)
            remote_nic = self.remote.nic
            remote_nic.ops_processed += 1
            yield sim.timeout(wqe_s)
            if remote_nic.fault_injector is not None:
                stall = remote_nic.read_stall_s()
                if stall > 0.0:
                    yield sim.timeout(stall)
            try:
                target = self._validated_target(rkey, remote_addr, length)
                data = target.rdma_read(remote_addr, length, sim.now)
            except Exception as exc:
                yield from ref_transfer(self.network, self.remote,
                                        self.local, IB_ACK_SIZE)
                done.fail(exc)
                return
            yield from ref_transfer(self.network, self.remote, self.local,
                                    ib_wire_size(length))
            local_nic.ops_processed += 1
            yield sim.timeout(wqe_s)
            self._notify()
            done.succeed(data)
        finally:
            slot.release()


def _connect(qp_type, sim, net, client, server, name):
    a = qp_type(sim, net, client, server, name=f"{name}.a")
    b = qp_type(sim, net, server, client, name=f"{name}.b")
    a.peer, b.peer = b, a
    return a, b


class _Faults:
    """Deterministic fault draws: call ``n`` returns ``base * (1 + n /
    7.31)``, or 0.0 where ``pattern`` has a 0 — a link hook, or a NIC
    injector's per-read stall.  No nonzero value repeats, so no two
    chains add the same fault term in different positions (two such
    sums can round to one instant, which is a tie, see ``ODD_IB``)."""

    def __init__(self, base, pattern):
        self.base = base
        self.pattern = pattern
        self.calls = 0

    def __call__(self, *_args):
        n = self.calls
        self.calls += 1
        if not self.pattern[n % len(self.pattern)]:
            return 0.0
        return self.base * (1.0 + n / 7.31)

    nic_read_stall = __call__


class _TraceTarget:
    """Memory target whose reads return their own DMA instant."""

    def __init__(self):
        self.log = []

    def rdma_write(self, address, length, payload, now):
        self.log.append(("write", address, length, payload, now))

    def rdma_read(self, address, length, now):
        self.log.append(("read", address, length, now))
        return ("data", address, now)


#: IB-100G with seven-digit constants that no small integer combination
#: of relates to another or to a whole number of bytes on the wire, so
#: two op chains meet at one float instant only when they are the same
#: hops from the same post.  What is compared is the hop structure, not
#: the order of unrelated same-instant events (that order is what the
#: pinned fingerprints in test_runtime_parity guard).
ODD_IB = dataclasses.replace(IB_100G, bandwidth_bps=97.31572e9,
                             base_latency_s=0.9071337e-6,
                             rdma_post_overhead_s=0.2113869e-6,
                             rdma_nic_processing_s=0.2537211e-6)
#: Spacing of the posting schedule (likewise unrelated to the above).
POST_QUANTUM = 0.1379583e-6


def run_verbs(qp_type, schedule, n_qps=1, shared_nic=True, budget=16,
              penalties=None, stalls=None, profile=ODD_IB,
              quantum=POST_QUANTUM):
    """Post ``schedule`` — ``[(gap, op), ...]``, gaps in ``quantum``
    units, with ``op`` one of
    ``("read", qp, length, bad)``, ``("batch", qp, lengths)``,
    ``("write", qp, length, imm)`` — and report everything observable:
    per-op outcomes with completion instants, the notification instants
    of a channel on every QP end, the memory target's DMA log, link byte
    counts, the clock."""
    sim = Simulator()
    net = Network(sim, profile)
    server = Host(sim, "server", profile)
    net.attach_server(server)
    region = server.memory.register(1 << 22, name="test")
    target = _TraceTarget()
    server.memory.bind(region.rkey, target)
    hosts = []
    for i in range(1 if shared_nic else n_qps):
        host = Host(sim, f"client{i}", profile, cores=2)
        host.nic = Nic(sim, profile, name=f"client{i}.nic",
                       max_outstanding_reads=budget)
        hosts.append(host)
    pairs = [_connect(qp_type, sim, net, hosts[i % len(hosts)], server,
                      f"qp{i}") for i in range(n_qps)]
    for pair in pairs:
        for end in pair:
            end.channel = LoggedChannel(sim)
    if penalties:
        net.server_link.rx.fault_hook = _Faults(0.3571279e-6, penalties)
        net.server_link.tx.fault_hook = _Faults(0.4933517e-6,
                                                penalties[::-1])
    if stalls:
        server.nic.fault_injector = _Faults(1.1693083e-6, stalls)
    outcomes = []

    def record(index, part):
        def done(event):
            if event._ok:
                outcomes.append((index, part, sim.now, "ok", event._value))
            else:
                event.defused = True
                outcomes.append((index, part, sim.now,
                                 type(event._value).__name__))
        return done

    def driver():
        for index, (gap, op) in enumerate(schedule):
            if gap:
                yield sim.timeout(gap * quantum)
            kind, qp = op[0], pairs[op[1] % n_qps][0]
            address = region.base + 8192 * index
            if kind == "read":
                _kind, _qp, length, bad = op
                events = [qp.post_read(
                    region.rkey, region.end if bad else address, length)]
            elif kind == "batch":
                events = qp.post_read_batch([
                    (region.rkey, address + 4096 * j, length)
                    for j, length in enumerate(op[2])])
            else:
                _kind, _qp, length, imm = op
                events = [qp.post_write(region.rkey, address, index, length,
                                        imm=imm)]
            for part, event in enumerate(events):
                event.callbacks.append(record(index, part))

    sim.process(driver())
    sim.run()
    return dict(
        outcomes=outcomes,
        notified=[(a.channel.log, b.channel.log) for a, b in pairs],
        dma=target.log,
        link_bytes=(net.server_link.rx.total_bytes,
                    net.server_link.tx.total_bytes),
        nic_ops=[host.nic.ops_processed for host in hosts]
        + [server.nic.ops_processed],
        now=sim.now,
        events=sim._seq,
    )


def assert_equivalent(schedule, **world):
    ref = run_verbs(RefQp, schedule, **world)
    new = run_verbs(QpEndpoint, schedule, **world)
    events = new.pop("events"), ref.pop("events")
    assert new == ref
    return events


_ops = st.one_of(
    st.tuples(st.just("read"), st.integers(0, 2), st.integers(1, 4096),
              st.integers(0, 9).map(lambda x: x == 0)),
    st.tuples(st.just("batch"), st.integers(0, 2),
              st.lists(st.integers(1, 4096), min_size=1, max_size=5)),
    st.tuples(st.just("write"), st.integers(0, 2), st.integers(0, 4096),
              st.one_of(st.none(), st.integers(1, 99))),
)
#: Which fault-hook calls inject (see ``_Faults``).
_faults = st.one_of(st.none(), st.lists(st.booleans(), min_size=1,
                                        max_size=4))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(schedule=st.lists(st.tuples(st.one_of(st.integers(0, 2),
                                             st.integers(0, 12)), _ops),
                         min_size=1, max_size=24),
       n_qps=st.integers(1, 3), shared_nic=st.booleans(),
       budget=st.one_of(st.integers(1, 3), st.integers(1, 16)),
       penalties=_faults, stalls=_faults)
def test_verbs_match_the_stepwise_generator_model(schedule, n_qps,
                                                  shared_nic, budget,
                                                  penalties, stalls):
    assert_equivalent(schedule, n_qps=n_qps, shared_nic=shared_nic,
                      budget=budget, penalties=penalties, stalls=stalls)


def test_each_verb_spends_five_queue_entries_on_an_idle_fabric():
    for op in (("read", 0, 64, False), ("write", 0, 64, None),
               ("write", 0, 64, 7)):
        new_events, ref_events = assert_equivalent([(0, op)])
        # The driver's Initialize is the sixth entry on both sides.  The
        # completion event wakes its waiter by a same-instant hop, since
        # nothing else is due at that instant.
        assert new_events == 1 + 5
        assert ref_events == 1 + (10 if op[0] == "read" else 9)
    # A doorbell batch: the first read saves five entries as above, each
    # chained read (no post overhead to fuse) four; the chained reads
    # contend for the wire, and each of those two grants is a hop as well.
    new_events, ref_events = assert_equivalent(
        [(0, ("batch", 0, [64, 64, 64]))])
    assert ref_events - new_events == 5 + 4 + 4 + 2


# -- the read post-overhead fusion where the NIC budget binds ---------------
# On the real IB profile (0.2 us post overhead), one slot.  Gaps in ns.

_READ = ("read", 0, 64, False)


def _first_read_done_ns():
    report = run_verbs(QpEndpoint, [(0, _READ)], budget=1, profile=IB_100G,
                       quantum=1e-9)
    return int(report["outcomes"][0][2] * 1e9)


def test_read_posted_while_an_earlier_one_waits_out_its_overhead():
    # A holds the slot; B is posted 100 ns before A completes (no slot
    # free: B claims stepwise, at its due); A completes and frees the slot
    # inside B's overhead; C is posted 50 ns later, still inside it.  C
    # must not claim the free slot at post time: B claims first.
    done_a = _first_read_done_ns()
    schedule = [(0, _READ), (done_a - 100, _READ), (150, _READ)]
    report = run_verbs(QpEndpoint, schedule, budget=1, profile=IB_100G,
                       quantum=1e-9)
    finished = [index for index, *_rest in report["outcomes"]]
    assert finished == [0, 1, 2]
    assert_equivalent(schedule, budget=1, profile=IB_100G, quantum=1e-9)


def test_doorbell_batch_inside_an_early_claim_window():
    # A claims the only slot at post time; a two-read batch is posted
    # 100 ns later, inside A's overhead: its chained read claims at post
    # time, before A's due, so A must hand the slot back.
    schedule = [(0, _READ), (100, ("batch", 0, [64, 64]))]
    for budget in (1, 2):
        assert_equivalent(schedule, budget=budget, profile=IB_100G,
                          quantum=1e-9)
    # Two slots: one held by a read that completes inside A's overhead,
    # so A, handed back, is granted at its due after all — and still
    # reaches the wire ahead of the write posted right after it.
    done_x = _first_read_done_ns()
    schedule = [(0, _READ), (done_x - 150, _READ),
                (0, ("write", 0, 64, None)),
                (100, ("batch", 0, [64, 64]))]
    assert_equivalent(schedule, budget=2, profile=IB_100G, quantum=1e-9)


def test_ops_posted_after_a_stepwise_read_stay_behind_it():
    # Same-instant posts reach the wire in post order even when the first
    # read claims stepwise and what follows is fused: a write, or a read
    # on a second client's NIC.
    done_a = _first_read_done_ns()
    for tail in (("write", 0, 64, None), ("read", 1, 64, False)):
        schedule = [(0, _READ), (done_a - 100, _READ), (0, tail)]
        assert_equivalent(schedule, n_qps=2, shared_nic=False, budget=1,
                          profile=IB_100G, quantum=1e-9)
