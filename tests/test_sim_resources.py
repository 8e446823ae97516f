"""Unit tests for Resource / Store / Mailbox / Container primitives."""

import pytest

from repro.sim import Container, Mailbox, Resource, Simulator, Store


def test_resource_grants_up_to_capacity_immediately():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    grants = []

    def user(sim, res, tag, hold):
        with res.request() as req:
            yield req
            grants.append((tag, sim.now))
            yield sim.timeout(hold)

    sim.process(user(sim, res, "a", 10.0))
    sim.process(user(sim, res, "b", 10.0))
    sim.process(user(sim, res, "c", 10.0))
    sim.run()
    assert grants == [("a", 0.0), ("b", 0.0), ("c", 10.0)]


def test_resource_fifo_ordering():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def user(sim, res, tag):
        with res.request() as req:
            yield req
            order.append(tag)
            yield sim.timeout(1.0)

    for tag in "abcd":
        sim.process(user(sim, res, tag))
    sim.run()
    assert order == list("abcd")


def test_resource_counts_and_queue_length():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def holder(sim, res):
        with res.request() as req:
            yield req
            yield sim.timeout(5.0)

    def observer(sim, res, samples):
        yield sim.timeout(1.0)
        samples.append((res.count, res.queue_length))

    samples = []
    sim.process(holder(sim, res))
    sim.process(holder(sim, res))
    sim.process(observer(sim, res, samples))
    sim.run()
    assert samples == [(1, 1)]


def test_resource_release_idempotent():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def user(sim, res):
        req = res.request()
        yield req
        req.release()
        req.release()  # second release is a no-op

    sim.process(user(sim, res))
    sim.run()
    assert res.count == 0


def test_resource_cancel_waiting_request():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    granted = []

    def holder(sim, res):
        with res.request() as req:
            yield req
            yield sim.timeout(10.0)

    def impatient(sim, res):
        req = res.request()  # queued behind holder
        yield sim.timeout(1.0)
        req.release()  # give up before being granted

    def patient(sim, res):
        with res.request() as req:
            yield req
            granted.append(sim.now)

    sim.process(holder(sim, res))
    sim.process(impatient(sim, res))
    sim.process(patient(sim, res))
    sim.run()
    # patient gets the slot as soon as holder releases, impatient never did
    assert granted == [10.0]


def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer(sim, store):
        yield sim.timeout(1.0)
        store.put_discard("x")

    def consumer(sim, store):
        item = yield store.get()
        got.append((sim.now, item))

    sim.process(consumer(sim, store))
    sim.process(producer(sim, store))
    sim.run()
    assert got == [(1.0, "x")]


def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim, store):
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    for i in range(3):
        store.put_discard(i)
    sim.process(consumer(sim, store))
    sim.run()
    assert got == [0, 1, 2]


def test_store_multiple_getters_fifo():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim, store, tag):
        item = yield store.get()
        got.append((tag, item))

    def producer(sim, store):
        yield sim.timeout(1.0)
        store.put_discard("first")
        store.put_discard("second")

    sim.process(consumer(sim, store, "c1"))
    sim.process(consumer(sim, store, "c2"))
    sim.process(producer(sim, store))
    sim.run()
    assert got == [("c1", "first"), ("c2", "second")]


def test_store_len():
    sim = Simulator()
    store = Store(sim)

    store.put_discard(1)
    store.put_discard(2)
    sim.run()
    assert len(store) == 2


def test_store_get_cancel():
    sim = Simulator()
    store = Store(sim)
    got = []

    def canceller(sim, store):
        get = store.get()
        yield sim.timeout(1.0)
        get.cancel()

    def consumer(sim, store):
        yield sim.timeout(2.0)
        item = yield store.get()
        got.append(item)

    def producer(sim, store):
        yield sim.timeout(3.0)
        store.put_discard("only")

    sim.process(canceller(sim, store))
    sim.process(consumer(sim, store))
    sim.process(producer(sim, store))
    sim.run()
    # The cancelled getter must not swallow the item.
    assert got == ["only"]


def test_container_get_blocks_until_level():
    sim = Simulator()
    tank = Container(sim, capacity=100.0, init=0.0)
    got = []

    def consumer(sim, tank):
        yield tank.get(10.0)
        got.append(sim.now)

    def producer(sim, tank):
        yield sim.timeout(1.0)
        yield tank.put(4.0)
        yield sim.timeout(1.0)
        yield tank.put(6.0)

    sim.process(consumer(sim, tank))
    sim.process(producer(sim, tank))
    sim.run()
    assert got == [2.0]
    assert tank.level == 0.0


def test_container_put_blocks_at_capacity():
    sim = Simulator()
    tank = Container(sim, capacity=10.0, init=10.0)
    done = []

    def producer(sim, tank):
        yield tank.put(5.0)
        done.append(sim.now)

    def consumer(sim, tank):
        yield sim.timeout(3.0)
        yield tank.get(5.0)

    sim.process(producer(sim, tank))
    sim.process(consumer(sim, tank))
    sim.run()
    assert done == [3.0]
    assert tank.level == 10.0


def test_container_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Container(sim, capacity=5.0, init=6.0)
    tank = Container(sim, capacity=5.0)
    with pytest.raises(ValueError):
        tank.get(0.0)
    with pytest.raises(ValueError):
        tank.put(-1.0)


# -- synchronous completion fast paths ---------------------------------------


def test_uncontended_request_is_granted_synchronously():
    """An uncontended request is triggered (and processed) immediately,
    and yielding it resumes without a queue round-trip."""
    sim = Simulator()
    res = Resource(sim, capacity=2)
    req = res.request()
    assert req.triggered and req.processed
    assert res.count == 1
    order = []

    def worker(sim, res):
        with res.request() as r:
            yield r
            order.append(("granted", sim.now))
            yield sim.timeout(1.0)
        order.append(("released", sim.now))

    sim.process(worker(sim, res))
    sim.run()
    assert order == [("granted", 0.0), ("released", 1.0)]
    req.release()
    assert res.count == 0


def test_contended_request_still_fifo():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    grants = []

    def worker(sim, res, name, hold):
        with res.request() as r:
            yield r
            grants.append((name, sim.now))
            yield sim.timeout(hold)

    sim.process(worker(sim, res, "a", 2.0))
    sim.process(worker(sim, res, "b", 1.0))
    sim.process(worker(sim, res, "c", 1.0))
    sim.run()
    assert grants == [("a", 0.0), ("b", 2.0), ("c", 3.0)]


def test_store_get_with_buffered_item_is_synchronous():
    sim = Simulator()
    store = Store(sim)
    store.put_discard("x")
    get = store.get()
    assert get.triggered and get.processed
    assert get.value == "x"


def test_store_put_unbounded_is_synchronous_and_fifo_preserved():
    sim = Simulator()
    store = Store(sim)
    store.put_discard("a")
    assert len(store) == 1
    received = []

    def consumer(sim, store, n):
        for _ in range(n):
            item = yield store.get()
            received.append(item)

    store.put_discard("b")
    sim.process(consumer(sim, store, 3))
    sim.process(iter_put(sim, store))
    sim.run()
    assert received == ["a", "b", "c"]


def iter_put(sim, store):
    yield sim.timeout(1.0)
    store.put_discard("c")


def test_container_sync_paths_preserve_levels():
    sim = Simulator()
    tank = Container(sim, capacity=10.0, init=4.0)
    get = tank.get(3.0)
    assert get.triggered and get.processed
    assert tank.level == 1.0
    put = tank.put(9.0)
    assert put.triggered and put.processed
    assert tank.level == 10.0


# -- Mailbox: a store whose delivery wakes the reader by a hop --------------


def test_mailbox_get_with_buffered_item_is_synchronous():
    sim = Simulator()
    box = Mailbox(sim)
    box.put("x")
    get = box.get()
    assert get.processed and get.value == "x"


def test_mailbox_put_wakes_the_reader_inline_when_nothing_else_is_due():
    sim = Simulator()
    box = Mailbox(sim)
    got = []

    def reader():
        got.append((yield box.get()))
        got.append(sim.now)

    sim.process(reader())
    sim.timeout(1.0).callbacks.append(lambda _event: box.put("x"))
    sim.run()
    assert got == ["x", 1.0]
    # The reader's Initialize and the timeout: the wake-up queued nothing.
    assert sim._seq == 2


def test_mailbox_put_queues_the_wake_up_behind_an_entry_due_now():
    sim = Simulator()
    box = Mailbox(sim)
    order = []

    def reader():
        yield box.get()
        order.append("reader")

    def deliver(_event):
        sim.timeout(0.0).callbacks.append(lambda _e: order.append("due"))
        box.put("x")

    sim.process(reader())
    sim.timeout(1.0).callbacks.append(deliver)
    sim.run()
    assert order == ["due", "reader"]


def test_mailbox_withdrawn_get_leaves_the_item_buffered():
    sim = Simulator()
    box = Mailbox(sim)
    get = box.get()
    box.withdraw(get)
    box.put("x")
    assert not get.triggered
    assert list(box.items) == ["x"]
