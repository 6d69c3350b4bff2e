"""Tests for generator-based processes."""

import pytest

from repro.sim import Interrupt, Process, Simulator, SimulationError


def test_process_advances_clock():
    sim = Simulator()
    marks = []

    def body(sim):
        yield sim.timeout(1.5)
        marks.append(sim.now)
        yield sim.timeout(2.5)
        marks.append(sim.now)

    sim.process(body(sim))
    sim.run()
    assert marks == [1.5, 4.0]


def test_process_return_value():
    sim = Simulator()

    def body(sim):
        yield sim.timeout(1.0)
        return "result"

    proc = sim.process(body(sim))
    assert sim.run_until_complete(proc) == "result"


def test_process_waits_on_process():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(3.0)
        return 42

    def parent(sim):
        value = yield sim.process(child(sim))
        return value * 2

    proc = sim.process(parent(sim))
    assert sim.run_until_complete(proc) == 84
    assert sim.now == 3.0


def test_yield_receives_event_value():
    sim = Simulator()

    def body(sim):
        got = yield sim.timeout(1.0, value="hello")
        return got

    assert sim.run_until_complete(sim.process(body(sim))) == "hello"


def test_process_exception_propagates_to_waiter():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1.0)
        raise ValueError("inner")

    def parent(sim):
        try:
            yield sim.process(child(sim))
        except ValueError as err:
            return f"caught {err}"

    assert sim.run_until_complete(sim.process(parent(sim))) == "caught inner"


def test_unwaited_process_exception_raises_at_run():
    sim = Simulator()

    def body(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("unhandled")

    sim.process(body(sim))
    with pytest.raises(RuntimeError, match="unhandled"):
        sim.run()


def test_yield_non_event_fails_process():
    sim = Simulator()

    def body(sim):
        yield "not an event"

    proc = sim.process(body(sim))
    with pytest.raises(SimulationError, match="non-event"):
        sim.run_until_complete(proc)


def test_yield_number_sleeps():
    """``yield <seconds>`` is the fast-path equivalent of a timeout."""
    sim = Simulator()
    marks = []

    def body(sim):
        got = yield 1.5
        marks.append((sim.now, got))
        yield 2  # ints sleep too
        marks.append((sim.now, None))

    sim.process(body(sim))
    sim.run()
    assert marks == [(1.5, None), (3.5, None)]


def test_yield_negative_number_fails_process():
    sim = Simulator()

    def body(sim):
        yield -0.5

    proc = sim.process(body(sim))
    with pytest.raises(SimulationError, match="negative sleep"):
        sim.run_until_complete(proc)


def test_interrupt_wakes_number_sleep():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield 100.0
        except Interrupt as intr:
            log.append(("interrupted", sim.now, intr.cause))
        yield 1.0
        log.append(("resumed", sim.now))

    proc = sim.process(sleeper(sim))
    sim.call_in(5.0, lambda: proc.interrupt("wake"))
    sim.run()
    assert log == [("interrupted", 5.0, "wake"), ("resumed", 6.0)]


@pytest.mark.parametrize("second_wait", ["sleep", "event"])
def test_second_interrupt_of_an_instant_detaches_the_new_wait(second_wait):
    # two interrupts at one instant: the first lands at the sleep, the
    # second at the wait entered after it, which must then never resume
    # the process (it used to, with a stale value)
    sim = Simulator()
    log = []

    def body(sim):
        for _ in range(2):
            try:
                if second_wait == "sleep":
                    yield 0.5
                else:
                    yield sim.timeout(0.5, value="stale")
            except Interrupt as intr:
                log.append(("interrupted", sim.now, intr.cause))
        value = yield 2.0
        log.append(("resumed", sim.now, value))

    proc = sim.process(body(sim))

    def twice():
        proc.interrupt(1)
        proc.interrupt(2)

    sim.call_in(0.25, twice)
    sim.run()
    assert log == [
        ("interrupted", 0.25, 1),
        ("interrupted", 0.25, 2),
        ("resumed", 2.25, None),
    ]


def test_non_generator_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Process(sim, lambda: None)  # type: ignore[arg-type]


def test_interrupt_wakes_sleeping_process():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
            log.append("slept full")
        except Interrupt as intr:
            log.append(("interrupted", sim.now, intr.cause))

    proc = sim.process(sleeper(sim))
    sim.call_in(5.0, lambda: proc.interrupt("wake up"))
    sim.run()
    assert log == [("interrupted", 5.0, "wake up")]


def test_interrupt_after_completion_is_noop():
    sim = Simulator()

    def body(sim):
        yield sim.timeout(1.0)

    proc = sim.process(body(sim))
    sim.run()
    proc.interrupt()  # must not raise
    sim.run()
    assert proc.processed


def test_interrupted_process_can_continue():
    sim = Simulator()

    def body(sim):
        try:
            yield sim.timeout(100.0)
        except Interrupt:
            pass
        yield sim.timeout(1.0)
        return sim.now

    proc = sim.process(body(sim))
    sim.call_in(2.0, proc.interrupt)
    assert sim.run_until_complete(proc) == 3.0


def test_is_alive():
    sim = Simulator()

    def body(sim):
        yield sim.timeout(1.0)

    proc = sim.process(body(sim))
    assert proc.is_alive
    sim.run()
    assert not proc.is_alive


def test_finished_process_drops_its_wake():
    # the cached wake refers back to its process: a finished or failed
    # process lets it go, so refcounting frees the process
    sim = Simulator()

    def ok(sim):
        yield 0.5

    def bad(sim):
        yield 0.5
        raise RuntimeError("unhandled")

    done = sim.process(ok(sim))
    failed = sim.process(bad(sim))
    assert done._wake is not None
    with pytest.raises(RuntimeError):
        sim.run()
    assert done._wake is None and failed._wake is None
    assert not failed.ok


def test_many_processes_interleave_deterministically():
    sim = Simulator()
    order = []

    def worker(sim, name, delay):
        yield sim.timeout(delay)
        order.append(name)

    for i in range(10):
        sim.process(worker(sim, f"p{i}", delay=1.0 + (i % 3)))
    sim.run()
    expected = sorted(range(10), key=lambda i: (1.0 + (i % 3), i))
    assert order == [f"p{i}" for i in expected]
