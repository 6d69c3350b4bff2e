"""Frozen-reference equivalence: bare-callback hand-offs vs the Events
they replaced.

The request path takes its same-instant FIFO slots with bare kernel
callbacks instead of Events nothing waits on: process start, interrupt
delivery and late-subscriber relays, the download's floor ``Timeout``
plus ``AllOf``, resource grants that succeed at once, and the memory
release.  Each replacement pushes its entry at the moment the Event it
replaces was scheduled, so every firing must land where it used to.
The client's kill timer, a ``Timeout`` raced against the request
process in an ``AnyOf``, is now :func:`~repro.sim.events.deadline`: a
cancellable ``call_in`` plus a subscription on the process, resolving
one Event in the slot the ``AnyOf`` fired in.

The old formulations are kept verbatim below, down to the process's
old sleep and start path: each sleep on its own Timer handle, resumed
through the Event path's resume, where the library's process now
wakes through one cached callback and may continue a zero sleep in
place.  Seeded random
interleavings (plain ``random``, like :mod:`reference.difftest`) run
the same actor scripts once through the old formulations and once
through the new ones, on the live kernel and on the frozen seed
kernel, and compare the firing logs (``now`` and order at every step)
and the resource statistics.  Named cases pin the edge cases.

A download is never interrupted mid-flight here: no caller does that,
and the two forms differ there on purpose.  The abort fails
``transfer.done`` (defused: the abort is intentional), but the old
``AllOf`` turned that into a failure of its own that nobody waited on,
which stopped the run; the new form has no ``AllOf`` to fail.  An
external ``Network.abort`` still fails the download in both forms;
during the latency floor the new form raises when the floor ends.

Interrupt delivery is the other intended difference: the old delivery
did not detach a wait the process entered between ``interrupt()`` and
the delivery (its first wait, or the wait after an earlier interrupt
of the same instant), so that wait later resumed it a second time.
The random scripts avoid those two timings; named cases pin both.

The third is the completion of a process nobody waits on: it is marked
processed when the generator returns instead of through a completion
Event queued at that instant.  A subscriber that arrives later in the
same instant is handed off from where it subscribes, so work queued in
between now runs first (the old Event held the earlier slot).  A named
case pins that difference; the random scripts' seeds never reach it.
"""

from __future__ import annotations

import random
from types import SimpleNamespace
from typing import Any, Dict, List, Sequence

import pytest
from reference.adapters import SeedSimulator

from repro.net.link import Network, TransferAborted
from repro.net.tcp import TcpModel
from repro.server.resources import ServerResources, ServerSpec
from repro.sim.events import AllOf, AnyOf, Event, deadline
from repro.sim.kernel import SimulationError, Simulator
from repro.sim.process import Interrupt, Process

KERNELS = [
    pytest.param(Simulator, id="wheel"),
    pytest.param(SeedSimulator, id="seed"),
]

# ---------------------------------------------------------------------------
# the old formulations, verbatim
# ---------------------------------------------------------------------------


class _Wake:
    """Event-shaped singleton the start push and sleep timers resume a
    process with (always ok, value ``None``), so they reuse the one
    resume path instead of duplicating it."""

    __slots__ = ()
    _ok = True
    value = None


_WAKE = _Wake()


def _push_timer(sim, delay, fn):
    """The old sleep push: a bare callback ``delay`` from now plus its
    Timer handle.  The frozen seed kernel still has the method; on the
    wheel, ``call_in`` takes the same slot and returns the same kind of
    handle (the old push drew it from an arena of recycled handles)."""
    push = getattr(sim, "_push_timer", None)
    if push is not None:
        return push(delay, fn)
    return sim.call_in(delay, fn)


class OldProcess(Process):
    """A process started through a start Event, interrupted through a
    relay Event whose delivery throws without detaching, with late
    subscribers relayed through a fresh Event, a completion Event
    scheduled whether or not anything waits on it, and every sleep on
    its own Timer handle, resumed through the Event path's resume."""

    __slots__ = ("_sleep_timer",)

    def __init__(self, sim, generator) -> None:
        Event.__init__(self, sim)
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"process body must be a generator, got {type(generator).__name__}"
            )
        self._gen = generator
        self._waiting_on = None
        self._sleep_timer = None
        # Kick off the generator via an immediate event.
        start = Event(sim)
        start.subscribe(self._resume)
        start.succeed()

    def interrupt(self, cause: Any = None) -> None:
        if self._triggered:
            return
        target = self._waiting_on
        if target is not None:
            target.unsubscribe(self._resume)
            self._waiting_on = None
        timer = self._sleep_timer
        if timer is not None:
            timer.cancel()
            self._sleep_timer = None
        relay = Event(self.sim)
        relay.subscribe(lambda _ev: self._throw_in(Interrupt(cause)))
        relay.succeed()

    def _throw_in(self, exc: BaseException) -> None:
        if self._triggered:
            return
        try:
            target = self._gen.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as err:
            self._finish_failed(err)
            return
        self._wait_on(target)

    def subscribe(self, callback) -> None:
        if self._callbacks is not None:
            self._callbacks.append(callback)
            return
        relay = Event(self.sim)
        relay.subscribe(lambda _ev: callback(self))
        relay.succeed()

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        try:
            if event._ok:
                target = self._gen.send(event.value)
            else:
                event._defused = True
                target = self._gen.throw(event.exception)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except BaseException as err:
            self._finish_failed(err)
            return
        self._wait_on(target)

    def _resume_from_sleep(self) -> None:
        timer = self._sleep_timer
        self._sleep_timer = None
        if timer is not None:
            # The kernel has already released this entry (it only
            # calls us after popping it), and nothing else holds the
            # handle, so the timer is safe to recycle through the
            # wheel's arena.  Public call_at/call_in handles are never
            # pooled — user code may keep them.  getattr: the frozen
            # seed kernel used by the parity suite has no pool.
            pool = getattr(self.sim, "_timer_pool", None)
            if pool is not None:
                timer.fn = None  # drop the callback ref while parked
                pool.append(timer)
        self._resume(_WAKE)

    def _wait_on(self, target: Any) -> None:
        cls = target.__class__
        if cls is float or cls is int:
            # bare-number sleep: one Timer push, no Event machinery
            if target < 0:
                self._gen.close()
                self._finish_failed(
                    SimulationError(f"negative sleep: {target!r}")
                )
                return
            self._sleep_timer = _push_timer(
                self.sim, target, self._resume_from_sleep
            )
            return
        if not isinstance(target, Event):
            err = SimulationError(
                f"process yielded a non-event: {target!r}"
            )
            self._gen.close()
            self._finish_failed(err)
            return
        if target is self:
            self._gen.close()
            self._finish_failed(SimulationError("process waited on itself"))
            return
        self._waiting_on = target
        target.subscribe(self._resume)

    def _finish(self, value) -> None:
        self.succeed(value)

    def _finish_failed(self, err: BaseException) -> None:
        self.fail(err)


def old_download(tcp, sim, network, links, size_bytes, rtt, weight):
    if size_bytes <= 0:
        return 0.0
    if weight > 1:
        floor = sim.timeout(tcp.latency_floor_s(size_bytes, rtt))
        transfer = network.start_transfer(links, size_bytes * weight, weight=weight)
    else:
        floor = sim.timeout(tcp.latency_floor_s(size_bytes, rtt))
        transfer = network.start_transfer(links, size_bytes)
    try:
        yield AllOf(sim, [floor, transfer.done])
    finally:
        if transfer.active:
            network.abort(transfer)
    return size_bytes


def old_hold(sim, resource, seconds, meter):
    grant = resource.request()
    if meter is not None and not grant.triggered:
        queued_at = sim.now
        yield grant
        meter.waited(sim.now - queued_at)
    else:
        yield grant
    try:
        yield seconds
    finally:
        resource.release(grant)


def old_race(sim, proc, seconds):
    killer = sim.timeout(seconds)
    return AnyOf(sim, [proc, killer])


def old_free_memory(resources, amount):
    # frozen: what the blocking Container.get did with no waiter queued
    # -- withdraw at once, then schedule a zero-delay grant Event that
    # nothing waits on
    if not resources.memory.try_get(amount):
        raise RuntimeError(f"{resources.spec.name}: freeing unallocated memory")
    Event(resources.sim).succeed(value=amount)


# ---------------------------------------------------------------------------
# the new formulations: the library as it is
# ---------------------------------------------------------------------------


def new_hold(sim, resource, seconds, meter):
    claim = yield from resource.acquire(meter)
    try:
        yield seconds
    finally:
        resource.release(claim)


OLD = SimpleNamespace(
    spawn=OldProcess,
    download=old_download,
    hold=old_hold,
    free=old_free_memory,
    race=old_race,
)
NEW = SimpleNamespace(
    spawn=lambda sim, gen: sim.process(gen),
    download=lambda tcp, sim, network, links, size, rtt, weight: (
        tcp.download_weighted(sim, network, links, size, rtt, weight)
    ),
    hold=new_hold,
    free=lambda resources, amount: resources.free_memory(amount),
    race=deadline,
)

# ---------------------------------------------------------------------------
# one world, replayed through either formulation set
# ---------------------------------------------------------------------------

#: (link names) per path index; "srv" is shared by every path
PATHS = (("srv",), ("srv", "a"), ("srv", "b"), ("mid", "a"))
LINKS = (("srv", 400_000.0), ("mid", 250_000.0), ("a", 120_000.0), ("b", 60_000.0))
RESOURCES = ("cpu", "disk", "workers")


class _Meter:
    """Cohort-meter stand-in: logs every reported queueing wait."""

    def __init__(self, log: List, sim, aid: int) -> None:
        self.log, self.sim, self.aid = log, sim, aid

    def waited(self, seconds: float) -> None:
        self.log.append(("waited", self.aid, seconds, self.sim.now))


def replay(
    forms: SimpleNamespace,
    sim_cls,
    actors: Sequence[Sequence[tuple]],
    starts: Sequence[float],
) -> List[tuple]:
    """Run *actors* (one step script each, started at *starts*) through
    *forms* on a fresh ``sim_cls()``; return the observation log."""
    sim = sim_cls()
    network = Network(sim)
    links = {name: network.add_link(name, cap) for name, cap in LINKS}
    tcp = TcpModel()
    res = ServerResources(
        sim, ServerSpec(cpu_cores=2, max_workers=3, ram_bytes=1e9, baseline_memory_bytes=1e8)
    )
    pools = {"cpu": res.cpu, "disk": res.disk, "workers": res.workers}
    log: List[tuple] = []
    procs: Dict[int, Process] = {}
    counter = [len(actors)]

    def body(aid: int, steps: Sequence[tuple]):
        log.append(("start", aid, sim.now))
        for i, step in enumerate(steps):
            kind = step[0]
            try:
                if kind == "sleep":
                    yield step[1]
                elif kind == "download":
                    _, path, size, rtt, weight = step
                    route = [links[name] for name in PATHS[path]]
                    got = yield from forms.download(tcp, sim, network, route, size, rtt, weight)
                    log.append(("got", aid, got, sim.now))
                elif kind == "hold":
                    _, name, seconds, metered = step
                    meter = _Meter(log, sim, aid) if metered else None
                    yield from forms.hold(sim, pools[name], seconds, meter)
                elif kind == "mem":
                    _, amount, seconds = step
                    if res.allocate_memory(amount):
                        yield seconds
                        forms.free(res, amount)
                    log.append(("level", aid, res.memory.level, sim.now))
                elif kind == "spawn":
                    _, child_steps, wait = step
                    cid = counter[0]
                    counter[0] += 1
                    child = forms.spawn(sim, body(cid, child_steps))
                    procs[cid] = child
                    if wait:
                        value = yield child
                        log.append(("joined", aid, value, sim.now))
                elif kind == "request":
                    # the client's kill timer: race a request process
                    # against a deadline, then read the process itself
                    _, child_steps, seconds = step
                    cid = counter[0]
                    counter[0] += 1
                    child = forms.spawn(sim, body(cid, child_steps))
                    procs[cid] = child
                    try:
                        yield forms.race(sim, child, seconds)
                    except RuntimeError as err:
                        log.append(("req_err", aid, str(err), sim.now))
                    else:
                        ok = child.processed and child.ok
                        log.append(("req", aid, child.value if ok else "killed", sim.now))
                elif kind == "raise":
                    raise RuntimeError(f"request {aid} failed")
                elif kind == "wait":
                    target = procs.get(step[1])
                    if target is not None and target is not procs.get(aid):
                        value = yield target
                        log.append(("joined", aid, value, sim.now))
                elif kind == "interrupt":
                    target = procs.get(step[1])
                    if target is not None:
                        target.interrupt(aid)
            except Interrupt as intr:
                log.append(("intr", aid, i, intr.cause, sim.now))
            log.append(("step", aid, i, sim.now))
        return aid

    def launch(aid: int) -> None:
        procs[aid] = forms.spawn(sim, body(aid, actors[aid]))

    for aid, at in enumerate(starts):
        if at == 0.0 and aid % 2 == 0:
            launch(aid)  # created before the run, at time zero
        else:
            sim.call_at(at, lambda aid=aid: launch(aid))
    try:
        sim.run()
    except Exception as err:  # noqa: BLE001 - compared by type name
        log.append(("run_err", type(err).__name__))
    log.append(("end", sim.now))
    for name in RESOURCES:
        pool = pools[name]
        log.append(
            ("stats", name, pool.busy_integral(), pool.total_grants,
             pool.peak_queue_len, pool.in_use, pool.queue_len)
        )
    log.append(("memory", res.memory.level, res.memory.peak_level))
    log.append(("links", tuple((link.name, link.bytes_delivered) for link in network.links)))
    return log


def assert_equivalent(sim_cls, actors, starts) -> List[tuple]:
    old = replay(OLD, sim_cls, actors, starts)
    new = replay(NEW, sim_cls, actors, starts)
    assert new == old
    return new


# ---------------------------------------------------------------------------
# seeded random interleavings
# ---------------------------------------------------------------------------

#: duplicates on purpose: same-instant ties are the point
DELAYS = (0.0, 0.0, 0.001, 0.01, 0.05, 0.05, 0.1, 0.1, 0.25, 1.0 / 3.0)
RTTS = (0.0, 0.02, 0.05, 0.05, 0.1)
SIZES = (1_000.0, 3_000.0, 20_000.0, 150_000.0)
#: request deadlines: on the delay grid, so kills tie with other work
DEADLINES = (0.0, 0.05, 0.1, 0.25, 1.0 / 3.0)


def _gen_steps(rng: random.Random, n_actors: int, depth: int, downloads: bool) -> List[tuple]:
    steps: List[tuple] = []
    for _ in range(rng.randint(1, 5)):
        roll = rng.random()
        if roll < 0.2:
            steps.append(("sleep", rng.choice(DELAYS)))
        elif roll < 0.45 and downloads:
            steps.append(
                ("download", rng.randrange(len(PATHS)), rng.choice(SIZES),
                 rng.choice(RTTS), rng.choice((1, 1, 1, 3)))
            )
        elif roll < 0.65:
            steps.append(
                ("hold", rng.choice(RESOURCES), rng.choice(DELAYS), rng.random() < 0.5)
            )
        elif roll < 0.73:
            steps.append(("mem", rng.choice((1e6, 5e6)), rng.choice(DELAYS)))
        elif roll < 0.79 and depth < 2:
            # a spawned child may download: it is never an interrupt target
            child = _gen_steps(rng, n_actors, depth + 1, True)
            steps.append(("spawn", child, rng.random() < 0.5))
        elif roll < 0.87 and depth < 2:
            # a request child may fail, before or after its deadline
            child = _gen_steps(rng, n_actors, depth + 1, True)
            if rng.random() < 0.1:
                child.append(("raise",))
            steps.append(("request", child, rng.choice(DEADLINES)))
        elif roll < 0.93:
            steps.append(("wait", rng.randrange(n_actors)))
        else:
            steps.append(("interrupt", rng.randrange(n_actors)))
    return steps


def generate(seed: int, n_actors: int = 8):
    """Actor scripts and start times.

    Interrupts follow the rules under which the old delivery was
    sound, so both forms must agree: a target is a top-level actor
    with no download of its own, it is interrupted at most once, and
    only by an actor that starts strictly later, so it has run to its
    first yield when the interrupt is issued.  (The old delivery left
    the wait a process entered in between subscribed; the named cases
    below show that difference.)
    """
    rng = random.Random(seed)
    starts = [rng.choice(DELAYS) for _ in range(n_actors)]
    actors: List[List[tuple]] = []
    for _ in range(n_actors):
        actors.append(_gen_steps(rng, n_actors, 0, rng.random() < 0.6))
    free = {
        aid for aid, steps in enumerate(actors)
        if not any(step[0] == "download" for step in steps)
    }
    for aid, steps in enumerate(actors):
        stack = [steps]
        while stack:
            steps = stack.pop()
            for i, step in enumerate(steps):
                if step[0] == "interrupt":
                    ready = sorted(t for t in free if starts[t] < starts[aid])
                    target = rng.choice(ready) if ready else -1
                    free.discard(target)
                    steps[i] = ("interrupt", target)
                elif step[0] in ("spawn", "request"):
                    stack.append(step[1])
    return actors, starts


@pytest.mark.parametrize("sim_cls", KERNELS)
@pytest.mark.parametrize("seed0", [0, 100, 200, 300])
def test_random_interleavings_match_the_old_formulations(sim_cls, seed0):
    fired = landed = 0
    outcomes = set()
    for seed in range(seed0, seed0 + 25):
        actors, starts = generate(seed)
        log = assert_equivalent(sim_cls, actors, starts)
        fired += sum(1 for entry in log if entry[0] == "step")
        landed += sum(1 for entry in log if entry[0] == "intr")
        outcomes.update(entry[2] == "killed" for entry in log if entry[0] == "req")
    # not vacuous: the scripts really ran, interrupts landed, and
    # requests both beat their deadline and were killed by it
    assert fired > 200
    assert landed > 0
    assert outcomes == {True, False}


def test_random_interleavings_cover_every_step_kind():
    kinds = set()
    for seed in range(100):
        actors, _ = generate(seed)
        stack = list(actors)
        while stack:
            for step in stack.pop():
                kinds.add(step[0])
                if step[0] in ("spawn", "request"):
                    stack.append(step[1])
    assert kinds == {
        "sleep", "download", "hold", "mem", "spawn", "request", "raise", "wait", "interrupt",
    }


def test_old_and_new_logs_differ_when_a_slot_is_skipped():
    # mutation canary: a grant that resumes without the zero-delay hop
    # jumps the FIFO queue, and the comparison must see it
    def skipping_hold(sim, resource, seconds, meter):
        if resource.claim():
            claim = None
        else:
            claim = yield from resource.acquire(meter)
        try:
            yield seconds
        finally:
            resource.release(claim)

    broken = SimpleNamespace(**{**vars(NEW), "hold": skipping_hold})
    # actor 2's sleep is pushed between actor 0's claim and its hop
    actors = [[("hold", "cpu", 0.1, False)], [("sleep", 1.0)], [("sleep", 0.1)]]
    starts = [0.0, 0.0, 0.0]
    old = replay(OLD, Simulator, actors, starts)
    assert replay(broken, Simulator, actors, starts) != old


# ---------------------------------------------------------------------------
# named edge cases
# ---------------------------------------------------------------------------


def _steps(log, aid):
    return [entry for entry in log if entry[1] == aid and entry[0] in ("step", "got", "intr")]


@pytest.mark.parametrize("sim_cls", KERNELS)
def test_floor_before_transfer(sim_cls):
    # 150 kB over the 60 kB/s link: bandwidth-bound, the floor fires first
    log = assert_equivalent(sim_cls, [[("download", 2, 150_000.0, 0.02, 1)]], [0.0])
    assert _steps(log, 0)[0] == ("got", 0, 150_000.0, 2.5)


@pytest.mark.parametrize("sim_cls", KERNELS)
def test_transfer_before_floor(sim_cls):
    # 1 kB on a 100 ms path: latency-bound, the transfer is long done
    log = assert_equivalent(sim_cls, [[("download", 0, 1_000.0, 0.1, 1)]], [0.0])
    assert _steps(log, 0)[0] == ("got", 0, 1_000.0, 0.05)


@pytest.mark.parametrize("sim_cls", KERNELS)
def test_same_instant_ties(sim_cls):
    # identical downloads, holds and sleeps started together finish at
    # one instant: the resume order is the whole assertion
    script = [("download", 1, 20_000.0, 0.05, 1), ("hold", "cpu", 0.05, True), ("sleep", 0.0)]
    actors = [list(script) for _ in range(5)] + [[("sleep", 0.05), ("hold", "cpu", 0.0, False)]]
    log = assert_equivalent(sim_cls, actors, [0.0] * len(actors))
    finish = [entry for entry in log if entry[0] == "got"]
    assert len({entry[3] for entry in finish}) == 1


@pytest.mark.parametrize("sim_cls", KERNELS)
def test_zero_rtt(sim_cls):
    # the floor is zero: its sleep lands at the download's own instant
    actors = [[("download", 0, 3_000.0, 0.0, 1)], [("download", 0, 3_000.0, 0.0, 3)]]
    assert_equivalent(sim_cls, actors, [0.0, 0.0])


@pytest.mark.parametrize("sim_cls", KERNELS)
def test_release_then_grant_at_one_instant(sim_cls):
    # disk (one head): actor 0 holds it until 0.1 and actor 2, queued
    # at 0, is granted on its release; actor 1 (started after them)
    # asks at exactly 0.1, after the release, and queues behind actor
    # 2; actor 3 frees memory and claims it again at that instant
    actors = [
        [("hold", "disk", 0.1, True)],
        [("sleep", 0.1), ("hold", "disk", 0.05, True)],
        [("hold", "disk", 0.1, True)],
        [("mem", 1e6, 0.1), ("mem", 1e6, 0.0)],
    ]
    log = assert_equivalent(sim_cls, actors, [0.0] * 4)
    waits = [entry for entry in log if entry[0] == "waited"]
    assert [(entry[1], entry[3]) for entry in waits] == [(2, 0.1), (1, 0.2)]
    assert ("stats", "disk", 0.25, 3, 1, 0, 0) in log


@pytest.mark.parametrize("sim_cls", KERNELS)
def test_interrupt_in_the_start_instant(sim_cls):
    # actor 1 interrupts actor 0 in the instant both start, after
    # actor 0 reached its first yield: the Interrupt lands there
    actors = [[("sleep", 1.0), ("sleep", 1.0)], [("interrupt", 0)]]
    log = assert_equivalent(sim_cls, actors, [0.0, 0.0])
    assert _steps(log, 0)[:2] == [("intr", 0, 0, 1, 0.0), ("step", 0, 0, 0.0)]
    assert ("end", 1.0) in log


@pytest.mark.parametrize("sim_cls", KERNELS)
def test_interrupt_before_first_step(sim_cls):
    # actor 0 spawns child 1 and interrupts it before it ran: the start
    # hand-off is not cancellable, so the child first runs to its first
    # sleep and the Interrupt lands there, detaching that sleep
    actors = [[("spawn", [("sleep", 1.0), ("sleep", 1.0)], False), ("interrupt", 1)]]
    new = replay(NEW, sim_cls, actors, [0.0])
    assert _steps(new, 1) == [
        ("intr", 1, 0, 0, 0.0), ("step", 1, 0, 0.0), ("step", 1, 1, 1.0),
    ]
    assert ("end", 1.0) in new
    # the old delivery left the first sleep armed: it woke the child a
    # second time, which the comparison sees
    assert replay(OLD, sim_cls, actors, [0.0]) != new


class _RecordingNetwork(Network):
    """Network that keeps every transfer it starts, for external aborts."""

    def __init__(self, sim) -> None:
        super().__init__(sim)
        self.started: List[Any] = []

    def start_transfer(self, links, size_bytes, weight=1):
        transfer = super().start_transfer(links, size_bytes, weight=weight)
        self.started.append(transfer)
        return transfer


def _aborted_download(forms, sim_cls, link_bps, size, rtt, abort_at):
    sim = sim_cls()
    network = _RecordingNetwork(sim)
    route = [network.add_link("path", link_bps)]
    tcp = TcpModel()
    log: List[tuple] = []

    def body():
        try:
            got = yield from forms.download(tcp, sim, network, route, size, rtt, 1)
            log.append(("got", got, sim.now))
        except TransferAborted:
            log.append(("aborted", sim.now))

    sim.process(body())
    sim.call_at(abort_at, lambda: network.abort(network.started[0]))
    sim.run()
    return log, tcp.latency_floor_s(size, rtt)


@pytest.mark.parametrize("sim_cls", KERNELS)
def test_abort_during_the_floor_fails_the_download(sim_cls):
    # 150 kB over 400 kB/s at 100 ms RTT: the floor outlasts the
    # transfer, and the abort at 0.1 s lands inside both
    old, floor_s = _aborted_download(OLD, sim_cls, 400_000.0, 150_000.0, 0.1, 0.1)
    new, _ = _aborted_download(NEW, sim_cls, 400_000.0, 150_000.0, 0.1, 0.1)
    assert floor_s > 0.375
    assert old == [("aborted", 0.1)]
    assert new == [("aborted", floor_s)]


@pytest.mark.parametrize("sim_cls", KERNELS)
def test_abort_after_the_floor_fails_the_download_at_once(sim_cls):
    # bandwidth-bound: the abort lands while the download waits on done
    old, floor_s = _aborted_download(OLD, sim_cls, 60_000.0, 150_000.0, 0.02, 1.0)
    new, _ = _aborted_download(NEW, sim_cls, 60_000.0, 150_000.0, 0.02, 1.0)
    assert floor_s < 1.0
    assert new == old == [("aborted", 1.0)]


@pytest.mark.parametrize("sim_cls", KERNELS)
def test_late_subscriber_relay(sim_cls):
    # actor 1 waits on actor 0 after it finished: the relay hand-off
    actors = [[("sleep", 0.0)], [("sleep", 0.01), ("wait", 0), ("sleep", 0.0)]]
    log = assert_equivalent(sim_cls, actors, [0.0, 0.0])
    assert ("joined", 1, 0, 0.01) in log


# ---------------------------------------------------------------------------
# the kill timer: a request process raced against its deadline
# ---------------------------------------------------------------------------


def _requests(log):
    return [entry for entry in log if entry[0] in ("req", "req_err", "run_err")]


@pytest.mark.parametrize("sim_cls", KERNELS)
def test_request_beats_its_deadline(sim_cls):
    log = assert_equivalent(sim_cls, [[("request", [("sleep", 0.05)], 0.25)]], [0.0])
    assert _requests(log) == [("req", 0, 1, 0.05)]
    # the cancelled kill timer still holds its instant, like the Timeout
    assert ("end", 0.25) in log


@pytest.mark.parametrize("sim_cls", KERNELS)
def test_deadline_beats_the_request(sim_cls):
    log = assert_equivalent(sim_cls, [[("request", [("sleep", 0.5)], 0.25)]], [0.0])
    assert _requests(log) == [("req", 0, "killed", 0.25)]
    assert ("step", 1, 0, 0.5) in log  # the killed request still runs out


@pytest.mark.parametrize("sim_cls", KERNELS)
def test_request_and_deadline_in_one_instant(sim_cls):
    # zero deadline: the kill timer is queued behind the child's start.
    # An empty child returns there, so its completion is already queued
    # when the kill fires, and the waiter (queued after both) reads it
    # as done; a child that first sleeps 0 returns after the kill and
    # is read as killed
    actors = [
        [("request", [], 0.0)],
        [("request", [("sleep", 0.0)], 0.0)],
        # kill timer and the child's sleep share 0.25, kill first
        [("request", [("sleep", 0.25)], 0.25)],
    ]
    log = assert_equivalent(sim_cls, actors, [0.0, 0.0, 0.0])
    assert _requests(log) == [
        ("req", 0, 3, 0.0), ("req", 1, "killed", 0.0), ("req", 2, "killed", 0.25),
    ]


@pytest.mark.parametrize("sim_cls", KERNELS)
def test_failing_request(sim_cls):
    # before its deadline the failure is the waiter's; after it, nobody
    # waits and the failure stops the run, as the old AnyOf left it
    before = assert_equivalent(
        sim_cls, [[("request", [("sleep", 0.05), ("raise",)], 0.25)]], [0.0]
    )
    assert _requests(before) == [("req_err", 0, "request 1 failed", 0.05)]
    after = assert_equivalent(
        sim_cls, [[("request", [("sleep", 0.5), ("raise",)], 0.25)]], [0.0]
    )
    assert _requests(after) == [("req", 0, "killed", 0.25), ("run_err", "RuntimeError")]
    assert ("end", 0.5) in after


@pytest.mark.parametrize("sim_cls", KERNELS)
def test_late_same_instant_subscriber_to_an_unwatched_process(sim_cls):
    # at 0.1 the sleeps end in the order actor 0, 2, 1: actor 0
    # returns with nobody waiting, actor 2 queues a zero sleep, then
    # actor 1 waits on actor 0.  The old completion Event was queued
    # when actor 0 returned, ahead of actor 2's sleep; the new
    # late-subscriber hand-off is queued when actor 1 subscribes
    actors = [
        [("sleep", 0.1)],
        [("sleep", 0.1), ("wait", 0)],
        [("sleep", 0.1), ("sleep", 0.0)],
    ]
    starts = [0.0, 0.0, 0.0]

    def order(log):
        return [entry[:3] for entry in log if entry[0] in ("joined", "step")]

    head = [("step", 0, 0), ("step", 2, 0), ("step", 1, 0)]
    assert order(replay(OLD, sim_cls, actors, starts)) == head + [
        ("joined", 1, 0), ("step", 1, 1), ("step", 2, 1),
    ]
    assert order(replay(NEW, sim_cls, actors, starts)) == head + [
        ("step", 2, 1), ("joined", 1, 0), ("step", 1, 1),
    ]
