"""Edge-case units for the timer-wheel kernel internals.

The differential suite (`test_kernel_differential.py`) asserts the
wheel is observably seed-identical; these tests pin the wheel-specific
mechanics the seed never had — tombstone/epoch accounting, compaction
bounds, handle-free process sleeps, mid-batch parking — plus the seed-parity
corners called out in the kernel contract (cancel idempotency,
same-instant batching across all three drive loops, reentrancy).
"""

from __future__ import annotations

import pytest
from reference.adapters import SeedSimulator

from repro.sim.kernel import SimulationError, Simulator
from repro.sim.process import Interrupt
from repro.sim.timerwheel import (
    COMPACT_EPOCH_DELTA,
    TOMBSTONE,
    Timer,
    TimerWheel,
)


# -- cancellation accounting -------------------------------------------------


def test_cancel_is_idempotent_and_bumps_epoch_once() -> None:
    sim = Simulator()
    timer = sim.call_in(1.0, lambda: None)
    before = Timer._cancel_epoch
    timer.cancel()
    timer.cancel()
    timer.cancel()
    assert Timer._cancel_epoch == before + 1
    assert not timer.active


def test_cancel_after_fire_is_a_noop() -> None:
    sim = Simulator()
    fired = []
    timer = sim.call_in(1.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [1.0]
    before = Timer._cancel_epoch
    timer.cancel()  # slot already drained: nothing to tombstone
    assert Timer._cancel_epoch == before
    assert not timer.active


def test_cancelled_lone_instant_still_advances_clock() -> None:
    # seed parity: a cancelled timer's instant is still visited
    sim = Simulator()
    sim.call_in(1.0, lambda: None).cancel()
    sim.run()
    assert sim.now == 1.0


def test_cancel_duplicate_callback_tombstones_both_copies() -> None:
    # the same function object scheduled twice at one instant: each
    # handle must kill its own copy (cancel scans backwards, so the
    # second handle reaches the second copy first)
    sim = Simulator()
    fired = []

    def cb() -> None:
        fired.append(sim.now)

    t1 = sim.call_in(1.0, cb)
    t2 = sim.call_in(1.0, cb)
    before = Timer._cancel_epoch
    t2.cancel()
    t1.cancel()
    assert Timer._cancel_epoch == before + 2
    sim.run()
    assert fired == []
    assert sim.now == 1.0


def test_cancel_pending_entry_from_same_instant_callback() -> None:
    sim = Simulator()
    fired = []
    handles = {}

    def killer() -> None:
        fired.append("killer")
        handles["victim"].cancel()

    sim.call_in(1.0, killer)
    handles["victim"] = sim.call_in(1.0, lambda: fired.append("victim"))
    sim.call_in(1.0, lambda: fired.append("bystander"))
    sim.run()
    assert fired == ["killer", "bystander"]


def test_active_tracks_pending_state() -> None:
    sim = Simulator()
    lone = sim.call_in(1.0, lambda: None)
    dense_a = sim.call_in(2.0, lambda: None)
    dense_b = sim.call_in(2.0, lambda: None)
    assert lone.active and dense_a.active and dense_b.active
    dense_a.cancel()
    assert not dense_a.active
    assert dense_b.active  # sibling copy untouched
    sim.run()
    assert not lone.active and not dense_b.active


# -- compaction: mass-cancel stays bounded -----------------------------------


def test_mass_cancel_is_reclaimed_by_run_loop() -> None:
    sim = Simulator()
    n = COMPACT_EPOCH_DELTA + 500
    # half dense (one far-future instant), half lone (distinct instants)
    handles = [sim.call_in(50.0, lambda: None) for _ in range(n // 2)]
    handles += [sim.call_in(100.0 + i, lambda: None) for i in range(n - n // 2)]
    assert len(sim._wheel) == n
    for handle in handles:
        handle.cancel()
    # everything pending is a tombstone; the run loop's epoch check
    # compacts before dispatching, so the wheel empties without the
    # clock grinding through thousands of dead instants
    sim.run()
    stats = sim._wheel.stats()
    assert stats["entries"] == 0
    assert stats["slots"] == 0
    assert len(sim._keys) == 0
    assert sim._cancel_seen == Timer._cancel_epoch


def test_explicit_compact_preserves_survivors_and_order() -> None:
    sim = Simulator()
    fired = []
    keep_a = sim.call_in(1.0, lambda: fired.append("a1"))
    sim.call_in(1.0, lambda: fired.append("dead")).cancel()
    sim.call_in(1.0, lambda: fired.append("a2"))
    sim.call_in(2.0, lambda: None).cancel()  # lone tombstone: slot drops
    sim.call_in(3.0, lambda: fired.append("b"))
    removed = sim.compact()
    assert removed == 2
    stats = sim._wheel.stats()
    assert stats["tombstones"] == 0
    assert stats["live"] == 3
    assert keep_a.active
    sim.run()
    assert fired == ["a1", "a2", "b"]
    # compaction dropped instant 2.0 entirely, so the clock never
    # visits it (documented divergence from leaving tombstones in
    # place; only reachable via explicit compact() or >1024 cancels)
    assert sim.now == 3.0


def test_compact_unwraps_single_survivor_bucket() -> None:
    wheel = TimerWheel()
    wheel.push(1.0, TOMBSTONE)
    survivor = lambda: None  # noqa: E731
    wheel.push(1.0, survivor)
    wheel.push(1.0, TOMBSTONE)
    assert wheel.compact() == 2
    assert wheel.slots[1.0] is survivor  # demoted back to a lone entry
    assert wheel.keys == [1.0]


# -- same-instant batching across all drive loops ----------------------------


def _batch_scenario(sim: Simulator) -> list:
    log: list = []
    sim.call_in(1.0, lambda: log.append(("t1", sim.now)))
    event = sim.event()
    event.subscribe(lambda _ev: log.append(("ev", sim.now)))
    event.succeed(delay=1.0)
    sim.call_in(1.0, lambda: log.append(("t2", sim.now)))
    sim.call_in(1.0, lambda: sim.at_instant_end(lambda: log.append(("icb", sim.now))))
    sim.call_in(2.0, lambda: log.append(("later", sim.now)))
    return log


EXPECTED_BATCH = [
    ("t1", 1.0),
    ("ev", 1.0),
    ("t2", 1.0),
    ("icb", 1.0),
    ("later", 2.0),
]


def test_same_instant_batch_order_under_run() -> None:
    sim = Simulator()
    log = _batch_scenario(sim)
    sim.run()
    assert log == EXPECTED_BATCH


def test_same_instant_batch_order_under_step() -> None:
    sim = Simulator()
    log = _batch_scenario(sim)
    while sim.peek() is not None:
        sim.step()
    assert log == EXPECTED_BATCH


def test_same_instant_batch_order_under_run_until_complete() -> None:
    sim = Simulator()
    log = _batch_scenario(sim)

    def body():
        yield 3.0

    sim.run_until_complete(sim.process(body()))
    assert log == EXPECTED_BATCH


# -- run_until_complete mid-batch parking ------------------------------------


def test_ruc_parks_unfired_same_instant_remainder() -> None:
    # work scheduled *after* the awaited process completes (by its
    # completion subscribers, at the same instant) must not run during
    # run_until_complete, but must survive, parked, for a later run()
    sim = Simulator()
    log: list = []

    def body():
        yield 1.0

    proc = sim.process(body())
    proc.subscribe(lambda _ev: sim.call_in(0.0, lambda: log.append(("parked", sim.now))))
    sim.run_until_complete(proc)
    assert log == []  # not fired during ruc
    assert sim.peek() == 1.0  # still pending at its instant
    sim.run()
    assert log == [("parked", 1.0)]  # fired at the original instant


def test_ruc_abandoned_bucket_never_refires() -> None:
    # entries dispatched before the awaited process finished leave the
    # bucket; a later run() over the parked rest must not run them again
    sim = Simulator()
    log: list = []
    sim.call_in(1.0, lambda: log.append("before"))

    def body():
        yield 1.0

    proc = sim.process(body())
    proc.subscribe(lambda _ev: sim.call_in(0.0, lambda: log.append("after")))
    sim.run_until_complete(proc)
    assert log == ["before"]
    sim.run()
    assert log == ["before", "after"]


def _awaited_scenario(sim, log: list, crowded: bool):
    """A process that queues same-instant work just before it returns;
    *crowded* puts a second timer in its instant, so the instant is a
    list bucket instead of a lone entry."""

    def body():
        yield 1.0
        sim.call_in(0.0, lambda: log.append("queued-before-return"))
        return "v"

    proc = sim.process(body())
    if crowded:
        sim.call_in(1.0, lambda: log.append("same-instant-timer"))
    return proc


@pytest.mark.parametrize("crowded", [False, True])
def test_ruc_stops_in_the_completion_slot_of_an_unwatched_process(crowded) -> None:
    # nothing subscribes to the process, so it would complete on the
    # spot; run_until_complete keeps its completion Event and stops in
    # that slot, after the work queued ahead of it
    sim = Simulator()
    log: list = []
    proc = _awaited_scenario(sim, log, crowded)
    assert sim.run_until_complete(proc) == "v"
    expected = ["queued-before-return"]
    if crowded:
        expected.insert(0, "same-instant-timer")
    assert log == expected


def test_unwatched_process_completes_on_the_spot() -> None:
    sim = Simulator()
    seen: list = []

    def body():
        yield 1.0
        return "v"

    proc = sim.process(body())
    # queued behind the process's start, so its timer follows the sleep
    sim.call_in(0.0, lambda: sim.call_in(1.0, lambda: seen.append((proc.processed, proc.value))))
    sim.run()
    # processed as the generator returned, ahead of the timer queued
    # behind its sleep: no completion Event sat between them
    assert seen == [(True, "v")]


def test_lone_entry_pushes_at_now_join_the_ready_list() -> None:
    # a lone entry's same-instant pushes append to the draining slot:
    # FIFO order, no new key on the instant heap, and a cancel inside
    # the chain tombstones the pending link
    sim = Simulator()
    log: list = []
    keys_seen: list = []

    def link(k: int) -> None:
        log.append((k, sim.now))
        keys_seen.append(list(sim._keys))
        if k == 0:
            sim.call_in(0.0, lambda: link(1))
            doomed = sim.call_in(0.0, lambda: link(99))
            sim.call_in(0.0, lambda: link(2))
            doomed.cancel()

    sim.call_in(1.0, lambda: link(0))
    sim.call_in(2.0, lambda: log.append(("next", sim.now)))
    sim.run()
    assert log == [(0, 1.0), (1, 1.0), (2, 1.0), ("next", 2.0)]
    assert keys_seen == [[2.0]] * 3


@pytest.mark.parametrize("sim_cls", [Simulator, SeedSimulator], ids=["wheel", "seed"])
def test_run_resumes_after_a_lone_callback_raised(sim_cls) -> None:
    # the raising callback had queued same-instant work: it must still
    # be pending, at its instant, for the next run
    sim = sim_cls()
    log: list = []

    def boom() -> None:
        sim.call_in(0.0, lambda: log.append(("later", sim.now)))
        raise RuntimeError("boom")

    sim.call_in(1.0, boom)
    sim.call_in(2.0, lambda: log.append(("next", sim.now)))
    with pytest.raises(RuntimeError):
        sim.run()
    assert sim.peek() == 1.0
    sim.call_in(0.0, lambda: log.append(("pushed", sim.now)))
    sim.run()
    assert log == [("later", 1.0), ("pushed", 1.0), ("next", 2.0)]


# -- handle-free sleeps -------------------------------------------------------


def test_interrupted_sleeper_leaves_one_tombstone_that_compaction_reaps() -> None:
    sim = Simulator()
    log: list = []

    def sleeper():
        try:
            yield 5.0
        except Interrupt:
            log.append(("intr", sim.now))
        yield 1.0
        log.append(("done", sim.now))

    proc = sim.process(sleeper())
    sim.call_in(5.0, lambda: log.append(("beside", sim.now)))
    sim.run(until=1.0)
    assert sim._wheel.stats() == {"slots": 1, "entries": 2, "live": 2, "tombstones": 0}
    epoch = Timer._cancel_epoch
    proc.interrupt()
    # the sleep's wake became the only tombstone, at its own instant
    assert Timer._cancel_epoch == epoch + 1
    assert sim._wheel.stats()["tombstones"] == 1
    assert sim._slots[5.0][1] is TOMBSTONE
    sim.run(until=1.0)  # delivers the interrupt at 1.0
    assert log == [("intr", 1.0)]
    assert sim.compact() == 1
    assert sim._wheel.stats() == {"slots": 2, "entries": 2, "live": 2, "tombstones": 0}
    sim.run()
    assert log == [("intr", 1.0), ("done", 2.0), ("beside", 5.0)]


def test_public_handles_are_never_pooled() -> None:
    # sleeps take no handle, so nothing recycles one a caller holds
    sim = Simulator()

    def fn() -> None:
        return None

    timer = sim.call_in(1.0, fn)

    def sleeper():
        yield 0.5
        yield 1.0

    sim.process(sleeper())
    sim.run()
    assert (timer.sim, timer.when, timer.fn) == (sim, 1.0, fn)
    assert not timer.active


# -- guards and misc ---------------------------------------------------------


def test_run_reentrancy_guard_from_callback() -> None:
    sim = Simulator()
    caught: list = []

    def reenter() -> None:
        try:
            sim.run()
        except SimulationError as err:
            caught.append(str(err))

    sim.call_in(1.0, reenter)
    sim.run()
    assert caught == ["run() is not reentrant"]


def test_ruc_reentrancy_guard_from_callback() -> None:
    sim = Simulator()
    caught: list = []

    def body():
        yield 1.0

    proc = sim.process(body())

    def reenter() -> None:
        try:
            sim.run_until_complete(proc)
        except SimulationError as err:
            caught.append(str(err))

    sim.call_in(0.5, reenter)
    sim.run_until_complete(proc)
    assert caught == ["run() is not reentrant"]


def test_step_on_empty_raises_indexerror() -> None:
    # seed parity: heappop on an empty heap raised IndexError
    sim = Simulator()
    with pytest.raises(IndexError):
        sim.step()


def test_negative_delay_rejected_with_seed_message() -> None:
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_in(-0.5, lambda: None)
    with pytest.raises(SimulationError):
        sim.call_at(-0.5, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule(sim.event(), -0.5)


def test_call_in_negative_delay_names_call_in() -> None:
    # the message names the method called and the delay passed, not
    # the absolute instant call_at would have been handed
    sim = Simulator()
    with pytest.raises(SimulationError, match=r"call_in\(-1\.0\): negative delay \(now=0\.0\)"):
        sim.call_in(-1.0, lambda: None)
    with pytest.raises(SimulationError, match=r"call_at\(-0\.5\) is in the past"):
        sim.call_at(-0.5, lambda: None)


def test_wheel_reference_push_matches_kernel_inline_push() -> None:
    # TimerWheel.push is the documented reference for the inlined
    # scheduling fast paths: both must build identical structures
    sim = Simulator()
    fn_a, fn_b, fn_c = (lambda: None), (lambda: None), (lambda: None)
    sim.call_in(1.0, fn_a)
    sim.call_in(1.0, fn_b)
    sim.call_in(2.0, fn_c)

    wheel = TimerWheel()
    wheel.push(1.0, fn_a)
    wheel.push(1.0, fn_b)
    wheel.push(2.0, fn_c)

    assert wheel.slots == sim._slots
    assert sorted(wheel.keys) == sorted(sim._keys)
    assert wheel.peek() == sim.peek() == 1.0
    assert len(wheel) == len(sim._wheel) == 3
