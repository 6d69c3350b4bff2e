"""Tests for Resource (claims and the occupancy ledger) and Container."""

import pytest

from repro.core.cohort import CohortMeter
from repro.sim import Container, Resource, Simulator, SimulationError


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
    sim = Simulator()
    res = Resource(sim, capacity=2)
    held = res.request()
    assert res.claim()
    res.release()  # the claimed unit
    with pytest.raises(SimulationError, match="never taken"):
        res.release()  # would steal `held`'s unit
    assert (res.in_use, res.total_grants) == (1, 2)
    res.release(held)
    assert res.in_use == 0


def test_claim_never_jumps_the_queue():
    sim = Simulator()
    res = Resource(sim, capacity=1)
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


def test_container_put_get():
    sim = Simulator()
    box = Container(sim, capacity=100.0, init=10.0)
    assert box.try_get(5.0)
    assert box.level == 5.0
    box.put(20.0)
    assert box.level == 25.0
    assert box.peak_level == 25.0


def test_account_weight_one_without_meter_changes_nothing():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    sim.run(until=1.0)
    res.account(0.5, 1)  # exact mode: one member, no meter
    assert res.busy_integral() == 0.0


def test_account_posts_hidden_members_then_meters_the_hold():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    meter = CohortMeter(weight=4)
    sim.run(until=1.0)
    res.account(0.5, 4, meter)  # the representative plus 3 hidden members
    assert res.busy_integral() == 3 * 0.5
    assert meter.demands == {res: [4 * 0.5, 0.5]}
    # occupancy is untouched: the hidden members hold no unit
    assert (res.in_use, res.queue_len, res.total_grants) == (0, 0, 0)


def test_account_rejects_a_negative_hold():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    meter = CohortMeter(weight=4)
    with pytest.raises(SimulationError, match="negative hold"):
        res.account(-0.1, 4, meter)
    assert res.busy_integral() == 0.0
    assert meter.demands == {}


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
