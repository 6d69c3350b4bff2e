"""Differential property harness: timer wheel vs. frozen seed kernel.

The timer-wheel kernel (:mod:`repro.sim.kernel`) must be *observably
identical* to the frozen seed heap (:mod:`repro.sim._seed_kernel`).
This module makes that claim testable: it generates random operation
sequences — schedules, cancellations, reschedules, duplicate
timestamps, cancel-inside-callback, zero / sub-ulp / negative-clamped
delays, instant-end transactions, full Events, processes that sleep
(with a ``yield 0`` ahead of every step, which the wheel kernel may
continue in place), wait on events and spawn (and wait on) children,
interrupts, same-instant chains (each link pushes the next at ``now``,
from a lone entry as often as from a dense bucket, and one link
cancels either the link it just pushed or any op's handle) — replays
each sequence on both kernels, and compares the complete observation
logs:

- every callback / event / instant-end firing ``(kind, op id, now)``
  and every process step ``("proc", op id, step, value, now)`` in
  order — this pins both the fire *order* and the ``now()``
  trajectory at every fire, process start included;
- every error raised, recorded by exception *type name* (the frozen
  copy has its own ``SimulationError`` class, so identity comparison
  would be vacuously false);
- the final clock value after the run drains or hits the horizon.

Sequences are generated from a seed (``random.Random``), so every
failure is reproducible from ``(seed, n_ops, mode)`` alone.  On
mismatch, :func:`shrink` delta-debugs the sequence down to a minimal
reproducer before reporting, so a red test prints something a human
can act on instead of a 40-op haystack.

The delay palette is deliberately adversarial: exact duplicates force
dense same-instant buckets, ``1e-18``-scale offsets probe the float
regime where ``now + delay == now`` (so "distinct delay" and "same
instant" disagree), and ``0.1 + 0.2``-style sums probe representation
noise.  This doubles as the regression net for the kernel's Fast2Sum
assumption (``call_in`` computes its slot key as ``now + delay``
without the seed's explicit round-trip, which is exact for
non-negative operands).
"""

from __future__ import annotations

import random
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.sim import _seed_kernel
from repro.sim.kernel import Simulator
from repro.sim.process import Interrupt

#: default horizon passed to ``run(until=...)`` — chosen below the
#: maximum palette delay so some sequences leave unfired entries
#: behind, exercising the until-boundary and final-clock clamp.
HORIZON = 2.0

#: delays drawn by the generator.  Duplicates are intentional: they
#: raise the odds of same-instant collisions (dense buckets).
DELAY_PALETTE: Tuple[float, ...] = (
    0.0,
    0.0,
    0.001,
    0.001,
    0.001,
    1e-9,
    1e-6,
    0.01,
    0.1,
    0.1 + 0.2,  # representation noise: not the literal 0.3
    0.25,
    0.5,
    1.0,
    1.0,
    1.5,
    2.5,  # beyond HORIZON: stays pending
    1.0 / 3.0,
    2.0**-20,
    1e-18,  # now + 1e-18 == now once now >= ~2**-8: same-instant alias
)

#: negative delays the generator occasionally emits; both kernels must
#: reject them identically (SimulationError by type name).
NEGATIVE_PALETTE: Tuple[float, ...] = (-0.001, -1.0, -1e-9)

Op = Tuple[Any, ...]

#: drive loops :func:`fuzz` cycles through (see :func:`replay`)
MODES: Tuple[str, ...] = ("run", "complete", "step")


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def _gen_delay(rng: random.Random, allow_negative: bool = True) -> float:
    roll = rng.random()
    if allow_negative and roll < 0.06:
        return rng.choice(NEGATIVE_PALETTE)
    if roll < 0.25:
        # continuous delays: collisions become unlikely, buckets stay
        # lone — exercises the scalar-slot paths
        return rng.random() * 2.5
    return rng.choice(DELAY_PALETTE)


def _gen_nested(rng: random.Random, next_id: List[int], depth: int, budget: List[int]) -> List[Op]:
    """Ops executed from inside a firing callback."""
    if depth >= 2 or budget[0] <= 0:
        return []
    nested: List[Op] = []
    while budget[0] > 0 and rng.random() < 0.35:
        budget[0] -= 1
        nested.append(_gen_op(rng, next_id, depth + 1, budget))
    return nested


def _gen_steps(rng: random.Random, next_id: List[int], depth: int, budget: List[int]) -> List[Tuple]:
    """A process body: sleeps, event waits and (nested) spawns."""
    steps: List[Tuple] = []
    for _ in range(rng.randint(1, 4)):
        roll = rng.random()
        if roll < 0.45:
            steps.append(("sleep", _gen_delay(rng, allow_negative=False)))
        elif roll < 0.8 or depth >= 2 or budget[0] <= 0:
            steps.append(("event", _gen_delay(rng, allow_negative=False)))
        else:
            budget[0] -= 1
            cid = next_id[0]
            next_id[0] += 1
            child = _gen_steps(rng, next_id, depth + 1, budget)
            steps.append(("spawn", cid, child, rng.random() < 0.5))
    return steps


def _gen_op(rng: random.Random, next_id: List[int], depth: int, budget: List[int]) -> Op:
    oid = next_id[0]
    next_id[0] += 1
    roll = rng.random()
    if roll < 0.28:
        return ("call_in", oid, _gen_delay(rng), _gen_nested(rng, next_id, depth, budget))
    if roll < 0.42:
        # call_at relative to now-at-execution; negative offsets probe
        # the "in the past" rejection from inside a callback
        return ("call_at_rel", oid, _gen_delay(rng), _gen_nested(rng, next_id, depth, budget))
    if roll < 0.55:
        # target any op id, even ones scheduled later / never / already
        # fired — cancel must be an identical no-op on both kernels
        return ("cancel", oid, rng.randrange(max(1, next_id[0] + rng.randrange(8))))
    if roll < 0.64:
        return (
            "reschedule",
            oid,
            rng.randrange(max(1, next_id[0] + rng.randrange(8))),
            _gen_delay(rng, allow_negative=False),
        )
    if roll < 0.76:
        return ("event", oid, _gen_delay(rng), _gen_nested(rng, next_id, depth, budget))
    if roll < 0.86:
        return ("spawn", oid, _gen_steps(rng, next_id, depth, budget))
    if roll < 0.89:
        # like cancel: any op id, a live process or not
        return ("interrupt", oid, rng.randrange(max(1, next_id[0] + rng.randrange(8))))
    if roll < 0.95:
        # links, the link that cancels, and what it cancels: the link
        # it just pushed (target None) or any op's handle
        links = rng.randint(2, 6)
        target = None if rng.random() < 0.4 else rng.randrange(max(1, next_id[0] + rng.randrange(8)))
        return ("chain", oid, _gen_delay(rng, allow_negative=False), links, rng.randrange(links), target)
    return ("instant", oid, _gen_nested(rng, next_id, depth, budget))


def generate_ops(seed: int, n_ops: int = 40) -> List[Op]:
    """Deterministically generate a top-level operation sequence."""
    rng = random.Random(seed)
    next_id = [0]
    budget = [n_ops]
    ops: List[Op] = []
    while budget[0] > 0:
        budget[0] -= 1
        ops.append(_gen_op(rng, next_id, 0, budget))
    return ops


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def replay(
    sim_cls: Callable[[], Any],
    ops: Sequence[Op],
    horizon: float = HORIZON,
    mode: str = "run",
) -> List[Tuple[Any, ...]]:
    """Execute *ops* on a fresh ``sim_cls()``; return the observation log.

    ``mode`` selects the drive loop: ``"run"`` uses
    ``sim.run(until=horizon)``, ``"step"`` single-steps via
    ``peek()``/``step()`` until the pending set drains (no horizon —
    ``step`` has none in either kernel), ``"complete"`` runs
    ``run_until_complete`` on the first top-level spawn (with
    *horizon* as its limit), which stops in the middle of whatever
    same-instant work is queued behind that process's completion, then
    ``run(until=horizon)`` to drain what the stop parked.  The process
    has a subscriber (it logs the completion), so its completion is an
    Event on both kernels.
    """
    sim = sim_cls()
    obs: List[Tuple[Any, ...]] = []
    handles: dict = {}
    procs: dict = {}

    def body(oid: int, steps: Sequence[Tuple]):
        # every step logs what it resumed with; an interrupt is caught
        # and logged, so the process carries on with its next step
        obs.append(("proc", oid, -1, None, sim.now))
        # a zero sleep ahead of every step: after a start or a sleep the
        # wheel kernel continues it in place when its wake runs next
        script = [s for step in steps for s in (("zero",), step)]
        for i, step in enumerate(script):
            try:
                if step[0] == "zero":
                    value = yield 0
                elif step[0] == "sleep":
                    value = yield step[1]
                elif step[0] == "event":
                    event = sim.event()
                    event.succeed(value=oid, delay=step[1])
                    value = yield event
                else:
                    _, cid, child_steps, wait = step
                    child = procs[cid] = sim.process(body(cid, child_steps))
                    value = (yield child) if wait else None
            except Interrupt as intr:
                value = ("intr", intr.cause)
            obs.append(("proc", oid, i, value, sim.now))
        return oid

    def make_cb(oid: int, nested: Sequence[Op]) -> Callable[[], None]:
        # one closure per op: cancel-by-identity must never alias
        def cb() -> None:
            obs.append(("fire", oid, sim.now))
            exec_ops(nested)

        return cb

    def chain_link(oid: int, k: int, links: int, cut: int, target: Optional[int]) -> Callable[[], None]:
        def cb() -> None:
            obs.append(("chain", oid, k, sim.now))
            if k + 1 == links:
                return
            pushed = sim.call_in(0.0, chain_link(oid, k + 1, links, cut, target))
            if k == cut:
                handle = pushed if target is None else handles.get(target)
                if handle is not None:
                    handle.cancel()

        return cb

    def exec_op(op: Op) -> None:
        kind = op[0]
        if kind == "call_in":
            _, oid, delay, nested = op
            try:
                handles[oid] = sim.call_in(delay, make_cb(oid, nested))
            except Exception as err:  # noqa: BLE001 - logged for comparison
                obs.append(("err", oid, type(err).__name__))
        elif kind == "call_at_rel":
            _, oid, offset, nested = op
            try:
                handles[oid] = sim.call_at(sim.now + offset, make_cb(oid, nested))
            except Exception as err:  # noqa: BLE001
                obs.append(("err", oid, type(err).__name__))
        elif kind == "cancel":
            _, _oid, target = op
            handle = handles.get(target)
            if handle is not None:
                handle.cancel()
                handle.cancel()  # idempotency is part of the contract
        elif kind == "reschedule":
            _, oid, target, delay = op
            handle = handles.get(target)
            if handle is not None:
                handle.cancel()
            try:
                handles[oid] = sim.call_in(delay, make_cb(oid, ()))
            except Exception as err:  # noqa: BLE001
                obs.append(("err", oid, type(err).__name__))
        elif kind == "event":
            _, oid, delay, nested = op
            event = sim.event()

            def on_fire(_ev: Any, oid: int = oid, nested: Sequence[Op] = nested) -> None:
                obs.append(("event", oid, sim.now))
                exec_ops(nested)

            event.subscribe(on_fire)
            try:
                event.succeed(delay=delay)
            except Exception as err:  # noqa: BLE001
                obs.append(("err", oid, type(err).__name__))
        elif kind == "instant":
            _, oid, nested = op

            def icb(oid: int = oid, nested: Sequence[Op] = nested) -> None:
                obs.append(("instant", oid, sim.now))
                exec_ops(nested)

            sim.at_instant_end(icb)
        elif kind == "spawn":
            _, oid, steps = op
            procs[oid] = sim.process(body(oid, steps))
        elif kind == "interrupt":
            _, oid, target = op
            proc = procs.get(target)
            if proc is not None:
                proc.interrupt(oid)
        elif kind == "chain":
            _, oid, delay, links, cut, target = op
            handles[oid] = sim.call_in(delay, chain_link(oid, 0, links, cut, target))
        else:  # pragma: no cover - generator and interpreter move together
            raise ValueError(f"unknown op kind: {kind!r}")

    def exec_ops(seq: Sequence[Op]) -> None:
        for op in seq:
            exec_op(op)

    exec_ops(ops)
    try:
        if mode == "step":
            while sim.peek() is not None:
                sim.step()
        else:
            if mode == "complete":
                spawned = [op[1] for op in ops if op[0] == "spawn"]
                if spawned:
                    awaited = procs[spawned[0]]
                    awaited.subscribe(lambda _p: obs.append(("awaited", sim.now)))
                    value = sim.run_until_complete(awaited, limit=horizon)
                    obs.append(("complete", value, sim.now))
            sim.run(until=horizon)
    except Exception as err:  # noqa: BLE001 - compared by type name
        obs.append(("run_err", type(err).__name__))
    obs.append(("end", sim.now))
    return obs


# ---------------------------------------------------------------------------
# differential check + shrinking
# ---------------------------------------------------------------------------


def mismatch(ops: Sequence[Op], horizon: float = HORIZON, mode: str = "run") -> Optional[Tuple[List, List]]:
    """Replay *ops* on both kernels; return ``(seed_obs, wheel_obs)`` on
    divergence, ``None`` when the logs agree."""
    seed_obs = replay(_seed_kernel.Simulator, ops, horizon, mode)
    wheel_obs = replay(Simulator, ops, horizon, mode)
    if seed_obs != wheel_obs:
        return seed_obs, wheel_obs
    return None


def shrink(ops: Sequence[Op], horizon: float = HORIZON, mode: str = "run") -> List[Op]:
    """Delta-debug *ops* to a (locally) minimal still-diverging sequence.

    Greedy ddmin over the top-level list, then over each op's nested
    block: repeatedly try dropping chunks (halving the chunk size down
    to single ops) and keep any reduction that still diverges.
    """

    def diverges(candidate: Sequence[Op]) -> bool:
        return mismatch(candidate, horizon, mode) is not None

    current = list(ops)
    if not diverges(current):
        return current

    # pass 1: drop top-level chunks
    chunk = max(1, len(current) // 2)
    while chunk >= 1:
        i = 0
        reduced = False
        while i < len(current):
            candidate = current[:i] + current[i + chunk:]
            if candidate and diverges(candidate):
                current = candidate
                reduced = True
            else:
                i += chunk
        if chunk == 1 and not reduced:
            break
        chunk = chunk // 2 if chunk > 1 else (1 if reduced else 0)

    # pass 2: empty out nested blocks where possible
    def strip_nested(op: Op) -> Op:
        if op[0] in ("call_in", "call_at_rel", "event") and op[3]:
            return (*op[:3], [])
        if op[0] in ("instant", "spawn") and op[2]:
            return (op[0], op[1], [])
        return op

    for i, op in enumerate(current):
        candidate = list(current)
        candidate[i] = strip_nested(op)
        if candidate[i] is not op and diverges(candidate):
            current = candidate
    return current


def format_failure(ops: Sequence[Op], seed_obs: Sequence, wheel_obs: Sequence) -> str:
    """Human-readable divergence report for a (shrunken) sequence."""
    lines = ["kernel differential divergence", "ops:"]
    lines += [f"  {op!r}" for op in ops]
    n = max(len(seed_obs), len(wheel_obs))
    lines.append(f"{'seed':<40} | wheel")
    for i in range(n):
        left = repr(seed_obs[i]) if i < len(seed_obs) else "<missing>"
        right = repr(wheel_obs[i]) if i < len(wheel_obs) else "<missing>"
        marker = "  " if left == right else "! "
        lines.append(f"{marker}{left:<38} | {right}")
    return "\n".join(lines)


def check_sequence(seed: int, n_ops: int = 40, mode: str = "run") -> None:
    """Generate, replay, compare; raise ``AssertionError`` with a
    shrunken reproducer on divergence."""
    ops = generate_ops(seed, n_ops)
    diff = mismatch(ops, mode=mode)
    if diff is None:
        return
    minimal = shrink(ops, mode=mode)
    final = mismatch(minimal, mode=mode) or diff
    raise AssertionError(
        f"seed={seed} n_ops={n_ops} mode={mode}\n"
        + format_failure(minimal, *final)
    )


def fuzz(n_sequences: int, seed0: int = 0, n_ops: int = 40) -> int:
    """Run *n_sequences* differential cases (cycling through the drive
    modes); return the count checked.  Raises on first divergence."""
    for i in range(n_sequences):
        mode = MODES[i % len(MODES)]
        check_sequence(seed0 + i, n_ops=n_ops, mode=mode)
    return n_sequences
