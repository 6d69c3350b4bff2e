"""Tests for Resource, PriorityResource, Container and Store."""

import pytest

from repro.sim import Container, PriorityResource, Resource, Simulator, SimulationError, Store


def hold(sim, res, duration, log, name):
    req = res.request()
    yield req
    log.append((name, "start", sim.now))
    yield sim.timeout(duration)
    res.release(req)
    log.append((name, "end", sim.now))


def test_resource_capacity_one_serializes():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []
    sim.process(hold(sim, res, 2.0, log, "a"))
    sim.process(hold(sim, res, 2.0, log, "b"))
    sim.run()
    assert log == [
        ("a", "start", 0.0),
        ("a", "end", 2.0),
        ("b", "start", 2.0),
        ("b", "end", 4.0),
    ]


def test_resource_parallelism_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=3)
    log = []
    for i in range(5):
        sim.process(hold(sim, res, 1.0, log, f"p{i}"))
    sim.run()
    starts = {name: t for name, kind, t in log if kind == "start"}
    assert [starts[f"p{i}"] for i in range(5)] == [0.0, 0.0, 0.0, 1.0, 1.0]


def test_resource_fifo_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def grab(name):
        req = res.request()
        yield req
        order.append(name)
        yield sim.timeout(1.0)
        res.release(req)

    for name in "abcde":
        sim.process(grab(name))
    sim.run()
    assert order == list("abcde")


def test_resource_in_use_and_queue_len():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    log = []
    for i in range(4):
        sim.process(hold(sim, res, 10.0, log, str(i)))
    sim.run(until=1.0)
    assert res.in_use == 2
    assert res.queue_len == 2
    assert res.peak_queue_len == 2


def test_resource_utilization_tracking():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []
    sim.process(hold(sim, res, 5.0, log, "x"))
    sim.run()
    sim.run(until=10.0)
    # busy 5 s out of 10 s → 50%
    assert res.utilization() == pytest.approx(0.5)


def test_capacity_must_be_positive():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_double_release_raises():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    req = res.request()
    sim.run()
    res.release(req)
    with pytest.raises(SimulationError):
        res.release(req)


def test_cancel_queued_request_skips_grant():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    first = res.request()
    second = res.request()
    third = res.request()
    second.cancel()
    sim.run()
    res.release(first)
    sim.run()
    assert third.processed
    assert not second.processed


def test_release_ungranted_request_raises():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    res.request()
    queued = res.request()
    with pytest.raises(SimulationError):
        res.release(queued)


def test_claim_takes_a_free_unit_and_schedules_nothing():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    assert res.claim()
    assert res.claim()
    assert (res.in_use, res.total_grants) == (2, 2)
    assert sim.peek() is None
    assert not res.claim()  # full: the caller must queue
    assert (res.in_use, res.total_grants) == (2, 2)
    res.release()
    res.release()
    with pytest.raises(SimulationError, match="never taken"):
        res.release()
    assert res.in_use == 0


def test_bare_release_cannot_free_a_unit_held_by_a_request():
    for res_cls in (Resource, PriorityResource):
        sim = Simulator()
        res = res_cls(sim, capacity=2)
        held = res.request()
        assert res.claim()
        res.release()  # the claimed unit
        with pytest.raises(SimulationError, match="never taken"):
            res.release()  # would steal `held`'s unit
        assert (res.in_use, res.total_grants) == (1, 2)
        res.release(held)
        assert res.in_use == 0


def test_claim_never_jumps_the_queue():
    for res_cls in (Resource, PriorityResource):
        sim = Simulator()
        res = res_cls(sim, capacity=1)
        first = res.request()
        queued = res.request()
        res.release(first)  # grants `queued`, which is still pending
        assert not res.claim()
        sim.run()
        assert queued.processed
        res.release(queued)
        assert res.claim()


def test_acquire_reports_only_queued_waits():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    waits = []

    class Meter:
        def waited(self, seconds):
            waits.append((seconds, sim.now))

    def user(hold_s):
        claim = yield from res.acquire(Meter())
        try:
            yield hold_s
        finally:
            res.release(claim)
        return claim

    a = sim.process(user(1.0))
    b = sim.process(user(0.5))
    sim.run()
    assert a.value is None  # claimed on the spot: no Request
    assert b.value is not None and b.value.processed
    assert waits == [(1.0, 1.0)]
    assert (res.total_grants, res.peak_queue_len, res.busy_integral()) == (2, 1, 1.5)


def test_priority_resource_orders_by_priority():
    sim = Simulator()
    res = PriorityResource(sim, capacity=1)
    order = []

    def grab(name, prio):
        req = res.request(priority=prio)
        yield req
        order.append(name)
        yield sim.timeout(1.0)
        res.release(req)

    def spawn():
        # occupy first, then queue others while busy
        yield sim.timeout(0)

    blocker = res.request()
    sim.process(grab("low", 5))
    sim.process(grab("high", 1))
    sim.process(grab("mid", 3))
    sim.run()
    res.release(blocker)
    sim.run()
    assert order == ["high", "mid", "low"]


def test_priority_fifo_within_same_priority():
    sim = Simulator()
    res = PriorityResource(sim, capacity=1)
    order = []

    def grab(name):
        req = res.request(priority=1)
        yield req
        order.append(name)
        yield sim.timeout(1.0)
        res.release(req)

    blocker = res.request()
    for name in "abc":
        sim.process(grab(name))
    sim.run()
    res.release(blocker)
    sim.run()
    assert order == ["a", "b", "c"]


def test_container_put_get():
    sim = Simulator()
    box = Container(sim, capacity=100.0, init=10.0)
    got = box.get(5.0)
    sim.run()
    assert got.processed and box.level == 5.0
    box.put(20.0)
    assert box.level == 25.0
    assert box.peak_level == 25.0


def test_container_get_blocks_until_put():
    sim = Simulator()
    box = Container(sim, capacity=100.0)
    woke = []

    def getter(sim):
        yield box.get(30.0)
        woke.append(sim.now)

    sim.process(getter(sim))
    sim.call_in(4.0, lambda: box.put(30.0))
    sim.run()
    assert woke == [4.0]


def test_container_overflow_raises():
    sim = Simulator()
    box = Container(sim, capacity=10.0, init=5.0)
    with pytest.raises(SimulationError):
        box.put(6.0)


def test_container_try_get():
    sim = Simulator()
    box = Container(sim, init=3.0, capacity=10.0)
    assert box.try_get(2.0)
    assert not box.try_get(2.0)
    assert box.level == 1.0


def test_container_fifo_fairness():
    sim = Simulator()
    box = Container(sim, capacity=100.0)
    order = []

    def getter(name, amount):
        yield box.get(amount)
        order.append(name)

    sim.process(getter("big", 50.0))
    sim.process(getter("small", 1.0))
    sim.call_in(1.0, lambda: box.put(60.0))
    sim.run()
    # FIFO: the big request at the head is served first even though the
    # small one could have been satisfied earlier.
    assert order == ["big", "small"]


def test_store_put_get_fifo():
    sim = Simulator()
    store = Store(sim)
    store.put("a")
    store.put("b")
    g1, g2 = store.get(), store.get()
    sim.run()
    assert (g1.value, g2.value) == ("a", "b")


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def getter(sim):
        item = yield store.get()
        got.append((item, sim.now))

    sim.process(getter(sim))
    sim.call_in(2.0, lambda: store.put("late"))
    sim.run()
    assert got == [("late", 2.0)]


def test_store_capacity_drops_when_full():
    sim = Simulator()
    store = Store(sim, capacity=2)
    assert store.put(1) and store.put(2)
    assert not store.put(3)
    assert len(store) == 2
