"""In-place continuation: a zero sleep skips the kernel round trip
only when its wake is the entry the kernel would run next.

A process's wake (``Process._wake``) is both its start entry and every
sleep entry.  A ``yield 0`` inside that wake continues the generator
on the spot when the wake is the running lone entry with an empty
ready list behind it, or the last cell of the list being drained.
Everywhere else it pushes the wake like any sleep.  These tests pin
that rule on the live wheel kernel and on the frozen seed kernel
(which never continues in place): every case runs once with the
library's :class:`~repro.sim.process.Process` and once with
:class:`RoundTripProcess`, which sends every yield through the kernel,
and the firing logs (order and ``now`` at every step) must agree.
The wake counts show whether a continuation happened.
"""

from __future__ import annotations

import random
from typing import Any, Callable, List, Optional, Sequence

import pytest

from repro.sim import _seed_kernel
from repro.sim.kernel import Simulator
from repro.sim.process import Interrupt, Process
from repro.sim.timerwheel import TOMBSTONE

KERNELS = [
    pytest.param(Simulator, id="wheel"),
    pytest.param(_seed_kernel.Simulator, id="seed"),
]


class CountingProcess(Process):
    """The library's process, counting the kernel entries that wake it."""

    __slots__ = ("wakes",)

    def __init__(self, sim: Any, generator: Any) -> None:
        self.wakes = 0
        super().__init__(sim, generator)

    def _advance(self) -> None:
        self.wakes += 1
        Process._advance(self)


class RoundTripProcess(CountingProcess):
    """Reference: every yield, a zero sleep too, goes through the kernel."""

    __slots__ = ()

    def _advance(self) -> None:
        self.wakes += 1
        self._sleep_at = None
        try:
            target = self._gen.send(None)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except BaseException as err:
            self._finish_failed(err)
            return
        self._wait_on(target)


class EagerProcess(CountingProcess):
    """Mutant: continues every zero sleep in place, next entry or not."""

    __slots__ = ()

    def _advance(self) -> None:
        self.wakes += 1
        self._sleep_at = None
        while True:
            try:
                target = self._gen.send(None)
            except StopIteration as stop:
                self._finish(stop.value)
                return
            except BaseException as err:
                self._finish_failed(err)
                return
            if target.__class__ in (int, float) and target == 0:
                continue
            self._wait_on(target)
            return


class World:
    """A simulator, a log, and the process class the bodies run under."""

    def __init__(self, sim_cls: Callable[[], Any], proc_cls: type) -> None:
        self.sim = sim_cls()
        self.proc_cls = proc_cls
        self.log: List[tuple] = []
        self.procs: List[CountingProcess] = []

    def spawn(self, gen: Any) -> CountingProcess:
        proc = self.proc_cls(self.sim, gen)
        self.procs.append(proc)
        return proc

    def note(self, *entry: Any) -> None:
        self.log.append((*entry, self.sim.now))

    def mark(self, name: str) -> Callable[[], None]:
        return lambda: self.note(name)

    @property
    def wakes(self) -> int:
        return sum(proc.wakes for proc in self.procs)


def play(sim_cls, proc_cls, scene: Callable[[World], None], drive: str = "run") -> World:
    world = World(sim_cls, proc_cls)
    scene(world)
    sim = world.sim
    if drive == "step":
        while sim.peek() is not None:
            sim.step()
    else:
        sim.run()
    world.note("end")
    return world


def compare(sim_cls, scene, drive: str = "run"):
    """Play *scene* with the library's process and the round-trip
    reference; assert identical logs; return both worlds."""
    live = play(sim_cls, CountingProcess, scene, drive)
    ref = play(sim_cls, RoundTripProcess, scene, drive)
    assert live.log == ref.log
    return live, ref


def in_place(live: World, ref: World) -> int:
    """Zero sleeps *live* continued in place: the wakes it saved."""
    return ref.wakes - live.wakes


def on_wheel(sim_cls, n: int) -> int:
    """*n* on the wheel kernel; the seed kernel never continues in place."""
    return n if sim_cls is Simulator else 0


# ---------------------------------------------------------------------------
# named cases
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sim_cls", KERNELS)
def test_zero_sleep_in_a_lone_slot(sim_cls):
    def scene(w: World) -> None:
        def body():
            yield 1.0
            w.note("a")
            yield 0
            w.note("b")
            yield 0.0
            w.note("c")

        w.spawn(body())

    live, ref = compare(sim_cls, scene)
    assert [entry[0] for entry in live.log] == ["a", "b", "c", "end"]
    assert ref.wakes == 4
    assert in_place(live, ref) == on_wheel(sim_cls, 2)


@pytest.mark.parametrize("sim_cls", KERNELS)
def test_zero_sleep_is_the_last_cell_of_a_dense_bucket(sim_cls):
    def scene(w: World) -> None:
        w.sim.call_in(1.0, w.mark("before"))

        def body():
            yield 1.0  # the bucket at 1.0: [before, wake]
            w.note("a")
            yield 0
            w.note("b")

        w.spawn(body())

    live, ref = compare(sim_cls, scene)
    assert [entry[0] for entry in live.log] == ["before", "a", "b", "end"]
    assert in_place(live, ref) == on_wheel(sim_cls, 1)


@pytest.mark.parametrize("sim_cls", KERNELS)
def test_zero_sleep_that_is_not_the_last_cell(sim_cls):
    def scene(w: World) -> None:
        def body():
            yield 1.0  # the bucket at 1.0: [wake, after]
            w.note("a")
            yield 0
            w.note("b")

        w.spawn(body())
        w.sim.call_in(0.5, lambda: w.sim.call_in(0.5, w.mark("after")))

    live, ref = compare(sim_cls, scene)
    # the wake had a neighbour behind it: it queued, no continuation
    assert [entry[0] for entry in live.log] == ["a", "after", "b", "end"]
    assert in_place(live, ref) == 0


@pytest.mark.parametrize("sim_cls", KERNELS)
def test_same_instant_pushes_pending_behind_the_wake(sim_cls):
    def scene(w: World) -> None:
        sim = w.sim

        def body():
            yield 1.0  # a lone slot
            sim.call_in(0.0, w.mark("pushed"))
            yield 0  # queued behind the push
            w.note("a")
            event = sim.event()
            event.subscribe(lambda _ev: w.note("event"))
            event.succeed()
            yield 0  # queued behind the event's firing
            w.note("b")
            sim.at_instant_end(w.mark("instant end"))
            yield 0  # the last cell: runs on, before the instant end
            w.note("c")

        w.spawn(body())

    live, ref = compare(sim_cls, scene)
    assert [entry[0] for entry in live.log] == [
        "pushed", "a", "event", "b", "c", "instant end", "end",
    ]
    assert in_place(live, ref) == on_wheel(sim_cls, 1)


@pytest.mark.parametrize("sim_cls", KERNELS)
def test_interrupt_landing_in_the_same_instant(sim_cls):
    def scene(w: World) -> None:
        def victim():
            try:
                yield 1.0  # the bucket at 1.0: [attacker, victim]
                w.note("victim slept")
            except Interrupt as intr:
                w.note("victim interrupted", intr.cause)
            yield 0  # after an interrupt: always queued
            w.note("victim on")
            yield 0  # the last cell: runs on
            w.note("victim done")

        def attacker():
            yield 1.0
            w.note("attacker")
            target.interrupt("x")  # tombstones the victim's wake
            yield 0  # behind the interrupt delivery: queued
            w.note("attacker done")

        w.spawn(attacker())
        target = w.spawn(victim())

    live, ref = compare(sim_cls, scene)
    assert live.log == [
        ("attacker", 1.0),
        ("victim interrupted", "x", 1.0),
        ("attacker done", 1.0),
        ("victim on", 1.0),
        ("victim done", 1.0),
        ("end", 1.0),
    ]
    assert in_place(live, ref) == on_wheel(sim_cls, 1)


@pytest.mark.parametrize("sim_cls", KERNELS)
def test_run_until_complete_stops_in_that_instant(sim_cls):
    def scene(w: World) -> Any:
        def neighbour():
            w.note("neighbour")
            yield 0  # behind the awaited completion: parked by the stop
            w.note("neighbour on")
            yield 0  # a lone slot after the stop: runs on
            w.note("neighbour done")

        def awaited():
            yield 1.0
            yield 0  # a lone slot: runs on
            w.spawn(neighbour())
            w.note("awaited returns")
            return "value"

        return w.spawn(awaited())

    logs = []
    for proc_cls in (CountingProcess, RoundTripProcess):
        w = World(sim_cls, proc_cls)
        awaited = scene(w)
        # watched, so its completion is an Event on both kernels (the
        # seed's run_until_complete does not subscribe by itself)
        awaited.subscribe(lambda _proc: w.note("completion"))
        value = w.sim.run_until_complete(awaited)
        w.note("stopped", value, w.sim.peek())
        w.sim.run()
        w.note("end")
        logs.append(w)
    live, ref = logs
    assert live.log == ref.log
    assert live.log == [
        ("awaited returns", 1.0),
        ("neighbour", 1.0),
        ("completion", 1.0),
        ("stopped", "value", 1.0, 1.0),
        ("neighbour on", 1.0),
        ("neighbour done", 1.0),
        ("end", 1.0),
    ]
    assert in_place(live, ref) == on_wheel(sim_cls, 2)


@pytest.mark.parametrize("sim_cls", KERNELS)
def test_step_never_continues_in_place(sim_cls):
    def scene(w: World) -> None:
        def body():
            yield 0
            w.note("a")
            yield 1.0
            yield 0
            w.note("b")

        w.spawn(body())

    live, ref = compare(sim_cls, scene, drive="step")
    assert [entry[0] for entry in live.log] == ["a", "b", "end"]
    assert live.wakes == ref.wakes == 4
    # the same scene under run() continues both zero sleeps
    ran, ref = compare(sim_cls, scene)
    assert in_place(ran, ref) == on_wheel(sim_cls, 2)


@pytest.mark.parametrize("sim_cls", KERNELS)
def test_tombstoned_sleep_after_interrupt(sim_cls):
    slots: list = []

    def scene(w: World) -> None:
        def sleeper():
            try:
                yield 1.0  # the bucket at 1.0: [strike, sleeper]
            except Interrupt:
                w.note("interrupted")
            yield 0  # after an interrupt: always queued
            w.note("on")
            yield 0  # the last cell: runs on
            w.note("done")

        proc = w.spawn(sleeper())

        def strike() -> None:
            w.sim.call_in(0.0, w.mark("pushed"))
            proc.interrupt()
            slots.append(list(getattr(w.sim, "_slots", {}).get(1.0, ())))

        w.sim.call_in(1.0, strike)

    live, ref = compare(sim_cls, scene)
    assert [entry[0] for entry in live.log] == ["pushed", "interrupted", "on", "done", "end"]
    assert in_place(live, ref) == on_wheel(sim_cls, 1)
    if sim_cls is Simulator:
        # the wake's cell became the one tombstone, in its FIFO place
        # behind the running entry, with the push and the delivery after it
        for slot in slots:
            assert [entry is TOMBSTONE for entry in slot] == [False, True, False, False]


# ---------------------------------------------------------------------------
# seeded random interleavings
# ---------------------------------------------------------------------------

DELAYS = (0.0, 0.0, 0.0, 0.01, 0.1, 0.1, 0.25)


def _gen_steps(rng: random.Random, n_actors: int, depth: int) -> List[tuple]:
    steps: List[tuple] = []
    for _ in range(rng.randint(1, 6)):
        roll = rng.random()
        if roll < 0.3:
            steps.append(("zero", rng.choice((0, 0.0))))
        elif roll < 0.5:
            steps.append(("sleep", rng.choice(DELAYS)))
        elif roll < 0.6:
            steps.append(("push", rng.choice(DELAYS)))
        elif roll < 0.68:
            steps.append(("event", rng.choice(DELAYS)))
        elif roll < 0.74:
            steps.append(("instant",))
        elif roll < 0.82 and depth < 2:
            steps.append(("spawn", _gen_steps(rng, n_actors, depth + 1), rng.random() < 0.4))
        elif roll < 0.9:
            steps.append(("interrupt", rng.randrange(n_actors)))
        else:
            steps.append(("wait", rng.randrange(n_actors)))
    return steps


def generate(seed: int, n_actors: int = 6):
    rng = random.Random(seed)
    starts = [rng.choice(DELAYS) for _ in range(n_actors)]
    actors = [_gen_steps(rng, n_actors, 0) for _ in range(n_actors)]
    mode = ("run", "complete", "step")[seed % 3]
    return actors, starts, mode


def replay(sim_cls, proc_cls, actors: Sequence[Sequence[tuple]], starts, mode) -> World:
    w = World(sim_cls, proc_cls)
    sim = w.sim
    procs: dict = {}
    counter = [len(actors)]

    def body(aid: int, steps: Sequence[tuple]):
        w.note("start", aid)
        for i, step in enumerate(steps):
            kind = step[0]
            value: Any = None
            try:
                if kind in ("zero", "sleep"):
                    value = yield step[1]
                elif kind == "push":
                    sim.call_in(step[1], w.mark(f"push {aid}.{i}"))
                elif kind == "event":
                    event = sim.event()
                    event.subscribe(lambda _ev, tag=f"event {aid}.{i}": w.note(tag))
                    event.succeed(value=i, delay=step[1])
                    value = yield event
                elif kind == "instant":
                    sim.at_instant_end(w.mark(f"instant {aid}.{i}"))
                elif kind == "spawn":
                    cid = counter[0]
                    counter[0] += 1
                    child = procs[cid] = w.spawn(body(cid, step[1]))
                    if step[2]:
                        value = yield child
                elif kind == "interrupt":
                    target: Optional[Process] = procs.get(step[1])
                    if target is not None and target is not procs.get(aid):
                        target.interrupt(aid)
                elif kind == "wait":
                    target = procs.get(step[1])
                    if target is not None and target is not procs.get(aid):
                        value = yield target
            except Interrupt as intr:
                value = ("intr", intr.cause)
            w.note("step", aid, i, value)
        return aid

    def launch(aid: int) -> None:
        procs[aid] = w.spawn(body(aid, actors[aid]))

    for aid, at in enumerate(starts):
        if at == 0.0 and aid % 2 == 0:
            launch(aid)
        else:
            sim.call_at(at, lambda aid=aid: launch(aid))
    try:
        if mode == "step":
            while sim.peek() is not None:
                sim.step()
        else:
            if mode == "complete" and 0 in procs:
                # watched, as in test_run_until_complete_stops_in_that_instant
                procs[0].subscribe(lambda _proc: w.note("completion"))
                value = sim.run_until_complete(procs[0])
                w.note("complete", value, sim.peek())
            sim.run()
    except Exception as err:  # noqa: BLE001 - compared by type name
        w.note("run_err", type(err).__name__)
    w.note("end")
    return w


SEEDS = range(200)


def mismatches(proc_cls, sim_cls) -> List[int]:
    bad = []
    for seed in SEEDS:
        actors, starts, mode = generate(seed)
        ref = replay(sim_cls, RoundTripProcess, actors, starts, mode)
        got = replay(sim_cls, proc_cls, actors, starts, mode)
        if got.log != ref.log:
            bad.append(seed)
    return bad


@pytest.mark.parametrize("sim_cls", KERNELS)
def test_random_interleavings_match_the_round_trip(sim_cls):
    saved = interrupted = 0
    modes = set()
    for seed in SEEDS:
        actors, starts, mode = generate(seed)
        ref = replay(sim_cls, RoundTripProcess, actors, starts, mode)
        live = replay(sim_cls, CountingProcess, actors, starts, mode)
        assert live.log == ref.log, f"seed {seed} ({mode})"
        if sim_cls is Simulator:
            # and the seed kernel, which never continues in place
            frozen = replay(_seed_kernel.Simulator, CountingProcess, actors, starts, mode)
            assert frozen.log == live.log, f"seed {seed} ({mode})"
        gained = in_place(live, ref)
        assert gained == 0 or sim_cls is Simulator
        saved += gained
        if gained:
            modes.add(mode)
        interrupted += sum(
            1 for entry in live.log
            if entry[0] == "step" and isinstance(entry[3], tuple) and entry[3][0] == "intr"
        )
    # not vacuous: interrupts landed, and on the wheel zero sleeps ran
    # on in place under run and run_until_complete (never under step)
    assert interrupted > 20
    if sim_cls is Simulator:
        assert saved > 200
        assert modes == {"run", "complete"}


def test_unconditional_continuation_is_caught():
    # mutation canary: continuing every zero sleep in place, whether or
    # not its wake runs next, must show up in the comparison
    assert mismatches(EagerProcess, Simulator)
    assert not mismatches(CountingProcess, Simulator)
