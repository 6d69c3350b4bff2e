"""Kernel teardown: ``close()`` frees a finished world by reference counting.

Each case runs an awaited process to completion while other work is
still pending, closes the kernel, drops every handle on the processes
and checks, with the cycle collector off, that each process is gone at
once.  No process body may run on past the yield it was suspended at;
``finally`` blocks do run (``GeneratorExit`` lands at the yield), and
whatever they push is dropped unrun.  Both kernels: the timer wheel and
the frozen seed heap behind its adapter.
"""

import gc
import weakref

import pytest
from reference.adapters import SeedSimulator

from repro.sim.kernel import SimulationError, Simulator
from repro.sim.process import Interrupt, Process
from repro.sim.resources import Resource

KERNELS = [
    pytest.param(Simulator, id="wheel"),
    pytest.param(SeedSimulator, id="seed"),
]


class WatchedProcess(Process):
    """A process a test can hold a weak reference to."""

    __slots__ = ("__weakref__",)


@pytest.fixture(autouse=True)
def no_cycle_collector():
    """Only reference counting may free what the tests drop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def main(sim, until=1.0):
    """The awaited process: returns at *until*."""

    def body():
        yield until
        return "done"

    return sim.process(body())


def finish(sim, awaited, procs):
    """Run *awaited* to completion, close the kernel, drop *procs*; return
    weak references to them."""
    assert sim.run_until_complete(awaited) == "done"
    refs = [weakref.ref(p) for p in procs]
    del procs[:]
    sim.close()
    assert sim.peek() is None
    return refs


@pytest.mark.parametrize("sim_cls", KERNELS)
def test_sleeping_process(sim_cls):
    sim, log = sim_cls(), []

    def sleeper():
        yield 100.0
        log.append("woke")

    procs = [WatchedProcess(sim, sleeper())]
    refs = finish(sim, main(sim), procs)
    assert [r() for r in refs] == [None]
    assert log == []


@pytest.mark.parametrize("sim_cls", KERNELS)
def test_process_waiting_on_an_event(sim_cls):
    sim, log = sim_cls(), []
    # the Event outlives the teardown: its subscriber list must not
    # keep the waiter alive
    event = sim.event()

    def waiter():
        yield event
        log.append("resumed")

    procs = [WatchedProcess(sim, waiter())]
    refs = finish(sim, main(sim), procs)
    assert [r() for r in refs] == [None]
    assert not event._callbacks
    assert log == []


@pytest.mark.parametrize("sim_cls", KERNELS)
def test_undelivered_interrupt(sim_cls):
    sim, log = sim_cls(), []

    def victim():
        try:
            yield 100.0
        except Interrupt:
            log.append("interrupted")
        log.append("ran on")

    procs = [WatchedProcess(sim, victim())]
    awaited = main(sim)
    assert sim.run_until_complete(awaited) == "done"
    # as the runners stop background traffic: after the awaited
    # process returned, so the interrupt is still pending at close
    procs[0].interrupt("stop")
    refs = [weakref.ref(procs.pop())]
    sim.close()
    assert sim.peek() is None
    assert [r() for r in refs] == [None]
    assert log == []


@pytest.mark.parametrize("sim_cls", KERNELS)
def test_pending_instant_end_callback(sim_cls):
    sim, log = sim_cls(), []
    event = sim.event()

    def waiter():
        yield event
        log.append("resumed")

    procs = [WatchedProcess(sim, waiter())]
    awaited = main(sim)
    assert sim.run_until_complete(awaited) == "done"
    sim.at_instant_end(event.succeed)
    refs = [weakref.ref(procs.pop())]
    sim.close()
    assert [r() for r in refs] == [None]
    assert not event.triggered
    assert log == []


@pytest.mark.parametrize("sim_cls", KERNELS)
def test_entries_left_behind_the_awaited_completion(sim_cls):
    """The awaited process finishes inside a ready list (or a bucket):
    the run stops there and parks what its completion's subscribers
    pushed behind it."""
    sim, log, children = sim_cls(), [], []
    awaited = main(sim)

    def follower():
        yield awaited
        # resumed in the completion's callbacks, ahead of the stop
        child = WatchedProcess(sim, spawned())
        children.append(weakref.ref(child))
        log.append("follower resumed")
        yield child
        log.append("follower ran on")

    def spawned():
        log.append("spawned started")
        yield 0

    procs = [WatchedProcess(sim, follower())]
    assert sim.run_until_complete(awaited) == "done"
    assert log == ["follower resumed"]
    assert sim.peek() == sim.now  # the spawned start is parked unrun
    refs = [weakref.ref(procs.pop())]
    sim.close()
    assert sim.peek() is None
    assert [r() for r in refs + children] == [None, None]
    assert log == ["follower resumed"]


@pytest.mark.parametrize("sim_cls", KERNELS)
def test_finally_releases_a_contended_resource(sim_cls):
    """The holder's ``finally`` runs at close and its release grants the
    queued request, which pushes into the kernel; that push is dropped
    and the queued process never resumes."""
    sim, log = sim_cls(), []
    workers = Resource(sim, capacity=1)

    def holder():
        req = workers.request()
        yield req
        try:
            yield 100.0
            log.append("holder ran on")
        finally:
            workers.release(req)
            log.append("released")

    def queued():
        req = workers.request()
        yield req
        log.append("granted")
        workers.release(req)

    procs = [WatchedProcess(sim, holder()), WatchedProcess(sim, queued())]
    refs = finish(sim, main(sim), procs)
    assert [r() for r in refs] == [None, None]
    assert log == ["released"]
    assert workers.in_use == 1 and workers.queue_len == 0


@pytest.mark.parametrize("sim_cls", KERNELS)
def test_close_inside_a_run_is_refused(sim_cls):
    sim, errors = sim_cls(), []

    def closer():
        try:
            sim.close()
        except SimulationError as exc:
            errors.append(exc)
        return "done"
        yield

    assert sim.run_until_complete(sim.process(closer())) == "done"
    assert len(errors) == 1
