"""The discrete-event simulation kernel.

:class:`Simulator` owns the simulated clock and the pending-event
structure.  Events are scheduled with :meth:`Simulator.schedule` and
fire in timestamp order; ties break FIFO by insertion order so the
simulation is fully deterministic for a given seed.

Two kinds of entry live in the pending set:

- :class:`~repro.sim.events.Event` — the full synchronization object
  (value, subscribers, failure propagation), stored wrapped as a
  one-tuple ``(event,)``;
- a bare callback — the *fast path*: no value, no subscriber list and
  no state machine.  ``call_at`` / ``call_in`` schedule one and return
  a :class:`~repro.sim.timerwheel.Timer` handle for it; a generator
  process that yields a plain number sleeps on its one cached wake
  callback through ``_push_sleep``, which returns only the instant;
  and same-instant hand-offs (process start, interrupt delivery,
  late-subscriber relays) take their FIFO slot with one through
  ``_push_now``, which returns nothing.

The hand-off rule: an Event is created only where something needs its
value, its subscribers or a condition.  A hand-off that only holds a
same-instant FIFO slot pushes a bare callback at the moment the Event
it stands for would have been scheduled, so it lands in the same
bucket position and results stay byte-identical.  A process nobody
waits on completes without an Event (see ``process.py``);
:meth:`Simulator.run_until_complete` subscribes to the one it awaits.
A zero sleep whose wake would be the very next entry the kernel runs
is not pushed at all: the process continues in place (see *in-place
continuation* below).

**The ready list.**  A lone entry leaves its slot before it runs, and
while it runs the slot holds the kernel's ready list: a push at
``now`` finds a list there and appends, with no new key on the
instant heap, and the run loop drains the list after the entry.  The
one list is reused for every instant, so the lone-entry path
allocates nothing.  During that drain the instant's slot is occupied
while its key is off the heap; a stop mid-chain (``run_until_complete``)
or a raising callback hands the unfired rest back as an ordinary
bucket with its key on the heap.

**In-place continuation.**  The slot of the running instant tells a
process whether its wake would run next: it would when the slot holds
the empty ready list (the wake is the running lone entry and nothing
was pushed behind it) or when the wake is the last cell of the list
being drained (the ready list or a dense bucket).  A process that
yields ``0`` inside such a wake skips the push and the kernel
round trip and runs on; nothing else could have run in between, and
the instant-end callbacks still run after the instant drains, so
results stay byte-identical.  ``step`` pops its entry before running
it, so nothing continues in place under single-stepping; the frozen
seed kernel has no slots, so nothing does there either.

Pending entries live on a :class:`~repro.sim.timerwheel.TimerWheel`:
a dict of slot buckets keyed by the exact float timestamp plus a
min-heap of the occupied instants.  Dispatch therefore pays one bare
float heap-compare per *instant* instead of one tuple-compare per
*entry*, a same-instant batch drains with a plain list iteration, and
— because the retained entry is the callback itself rather than a
``(when, eid, obj)`` tuple plus a Timer object — the garbage
collector's collection cadence and scan sizes drop to what the
callbacks alone cost.  Cancellation replaces the pending entry with a
no-op tombstone (the slot keeps its shape and the clock still visits
the instant, exactly like the seed); once enough tombstones accumulate
the wheel is compacted at the top of the run loop, so mass
cancellation cannot grow the pending structure without bound.  See
``timerwheel.py`` for the structure's invariants and why the slot key
is the exact float timestamp rather than an integer-nanosecond
quantization.

The timestamp arithmetic is deliberately kept identical to the
original Event-based path (``now + (when - now)`` for absolute
scheduling) so refactors on top of the fast path stay byte-identical.
The frozen pre-wheel kernel is kept verbatim in ``_seed_kernel.py``;
the differential property suite in ``difftest.py`` replays random
operation sequences on both and asserts identical observable
behaviour.

**Allocation instants.**  :meth:`Simulator.at_instant_end` registers a
callback to run once the current same-timestamp batch has fully
drained, *before* the clock advances to the next pending timestamp.
This is the hook the fluid network's end-of-instant allocation
transaction rides on: any number of transfer joins/leaves at one
simulated instant are folded into a single rate recompute.  Callbacks
may schedule new work at the current instant (a flush can complete
transfers whose cascades run at the same timestamp); the stepper keeps
alternating batch-drain and instant-end callbacks until the instant is
quiescent, then moves on.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Optional

from repro.sim.timerwheel import (
    COMPACT_EPOCH_DELTA,
    Timer,
    TimerWheel,
)

__all__ = ["SimulationError", "Simulator", "Timer"]

#: the Process class, bound by the first Simulator.process call
_Process: Any = None


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. re-triggering a fired event)."""


class Simulator:
    """Event loop with a simulated clock.

    The clock unit is *seconds* throughout the library.  The simulator
    is single-threaded and deterministic: two events scheduled for the
    same instant fire in the order they were scheduled.
    """

    __slots__ = (
        "now",
        "_wheel",
        "_slots",
        "_keys",
        "_running",
        "_instant_cbs",
        "_cancel_seen",
        "_ready",
    )

    def __init__(self) -> None:
        #: current simulated time in seconds; only the run loops and
        #: ``step`` advance it
        self.now: float = 0.0
        wheel = TimerWheel()
        self._wheel = wheel
        # Hot-path aliases of the wheel's internals.  The wheel only
        # ever mutates these in place (never rebinds), so the aliases
        # — and the run loop's locals bound to them — stay valid
        # across compactions.
        self._slots = wheel.slots
        self._keys = wheel.keys
        self._running = False
        #: callbacks to run when the current instant finishes draining
        self._instant_cbs: list = []
        #: Timer._cancel_epoch as of the last compaction scan
        self._cancel_seen = Timer._cancel_epoch
        #: the draining instant's slot while its lone entry runs (see
        #: run): same-instant pushes append here without a key push
        self._ready: list = []

    # -- scheduling ----------------------------------------------------

    # The push sequence (slot lookup, lone-entry or list append, key
    # heap push for a new instant) is inlined in each scheduling
    # method: these are the hottest few lines in the library and one
    # delegation per event costs more than the duplication saves.
    # TimerWheel.push is the reference implementation.

    def schedule(self, event: "Event", delay: float = 0.0) -> None:
        """Arrange for *event* to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        when = self.now + delay
        entry = (event,)
        slots = self._slots
        cur = slots.get(when)
        if cur is None:
            slots[when] = entry
            heappush(self._keys, when)
        elif cur.__class__ is list:
            cur.append(entry)
        else:
            slots[when] = [cur, entry]

    def _push_sleep(
        self,
        delay: float,
        fn: Callable[[], Any],
        _heappush: Callable = heappush,
    ) -> float:
        """Push a process's wake *delay* seconds from now; no handle.

        Returns the instant: the sleeping process keeps it, and an
        interrupt tombstones the entry with
        :func:`~repro.sim.timerwheel.cancel_entry`.
        """
        when = self.now + delay
        slots = self._slots
        cur = slots.get(when)
        if cur is None:
            slots[when] = fn
            _heappush(self._keys, when)
        elif cur.__class__ is list:
            cur.append(fn)
        else:
            slots[when] = [cur, fn]
        return when

    def _push_now(
        self, fn: Callable[[], Any], _heappush: Callable = heappush
    ) -> None:
        """Push a bare-callback entry at the current instant; no handle.

        A same-instant hand-off (process start, interrupt delivery,
        late-subscriber relay) only needs its FIFO slot and is never
        cancelled.  The key is ``now + 0.0`` — the slot a zero-delay
        :meth:`schedule` takes.
        """
        when = self.now
        slots = self._slots
        cur = slots.get(when)
        if cur is None:
            slots[when] = fn
            _heappush(self._keys, when)
        elif cur.__class__ is list:
            cur.append(fn)
        else:
            slots[when] = [cur, fn]

    def call_at(
        self,
        when: float,
        fn: Callable[[], Any],
        _Timer: type = Timer,
        _new: Callable = Timer.__new__,
        _heappush: Callable = heappush,
    ) -> Timer:
        """Run ``fn()`` at absolute simulated time *when* (>= now).

        (The trailing defaults pre-bind globals; do not pass them.)
        """
        now = self.now
        if when < now:
            raise SimulationError(
                f"call_at({when}) is in the past (now={now})"
            )
        # seed-identical arithmetic: absolute times take the same
        # now + (when - now) roundtrip as the original delay path
        when = now + (when - now)
        timer = _new(_Timer)
        timer.sim = self
        timer.when = when
        timer.fn = fn
        slots = self._slots
        cur = slots.get(when)
        if cur is None:
            slots[when] = fn
            _heappush(self._keys, when)
        elif cur.__class__ is list:
            cur.append(fn)
        else:
            slots[when] = [cur, fn]
        return timer

    def call_in(
        self,
        delay: float,
        fn: Callable[[], Any],
        _Timer: type = Timer,
        _new: Callable = Timer.__new__,
        _heappush: Callable = heappush,
    ) -> Timer:
        """Run ``fn()`` after *delay* seconds of simulated time.

        (The trailing defaults pre-bind globals; do not pass them.)
        """
        now = self.now
        when = now + delay
        if when < now:
            raise SimulationError(
                f"call_in({delay}): negative delay (now={now})"
            )
        # The seed computed now + ((now + delay) - now).  For
        # non-negative now and delay that roundtrip is an identity
        # (Fast2Sum exactness: the rounded difference re-adds to the
        # rounded sum for same-sign operands), so the slot key is
        # taken directly; call_at keeps the explicit roundtrip because
        # its absolute input is arbitrary.  The differential suite
        # exercises this with adversarial float palettes.
        timer = _new(_Timer)
        timer.sim = self
        timer.when = when
        timer.fn = fn
        slots = self._slots
        cur = slots.get(when)
        if cur is None:
            slots[when] = fn
            _heappush(self._keys, when)
        elif cur.__class__ is list:
            cur.append(fn)
        else:
            slots[when] = [cur, fn]
        return timer

    def at_instant_end(self, fn: Callable[[], Any]) -> None:
        """Run ``fn()`` once the current simulated instant has drained.

        The callback fires after every already-pending event with the
        current timestamp has been processed and before the clock
        advances.  Callbacks run in registration order; a callback may
        push new events at the current instant (they are drained before
        the clock moves) and may register further instant-end
        callbacks (they run after that drain).  One registration is
        one call — periodic hooks must re-register themselves.
        """
        self._instant_cbs.append(fn)

    def _run_instant_end(self) -> None:
        """Fire the registered instant-end callbacks exactly once."""
        cbs = self._instant_cbs
        pending = cbs[:]
        # cleared in place: the run loops hold a local alias
        del cbs[:]
        for fn in pending:
            fn()

    # -- maintenance ----------------------------------------------------

    def compact(self) -> int:
        """Reclaim cancelled timers from the pending structure.

        Runs automatically at the top of the run loops once enough
        cancellations accumulate; call it directly to reclaim eagerly
        between runs.  Returns the number of entries removed.
        """
        removed = self._wheel.compact()
        self._cancel_seen = Timer._cancel_epoch
        return removed

    # -- factories ------------------------------------------------------

    def event(self) -> "Event":
        """Create an untriggered :class:`Event` bound to this simulator."""
        from repro.sim.events import Event

        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> "Timeout":
        """Create a :class:`Timeout` that fires after *delay* seconds.

        A Timeout is a full Event (it can join ``AllOf``/``AnyOf`` and
        carry a value).  A process that only wants to sleep should
        ``yield delay`` directly — that uses the bare-callback fast
        path instead.
        """
        from repro.sim.events import Timeout

        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> "Process":
        """Start a simulation process from a generator."""
        global _Process
        if _Process is None:
            # bound once: process.py imports this module
            from repro.sim.process import Process as _Process
        return _Process(self, generator)

    # -- execution ------------------------------------------------------

    def peek(self) -> Optional[float]:
        """Timestamp of the next pending event, or ``None`` if empty."""
        return self._keys[0] if self._keys else None

    def step(self) -> None:
        """Process exactly one pending event.

        If that event completes the current instant (the next pending
        timestamp differs, or the pending set empties), any registered
        instant-end callbacks run before ``step`` returns.  Note that
        ``step`` does not mark the simulator as running, so components
        that defer work to the instant boundary only while the loop is
        live (the fluid network's allocation flush) fall back to their
        eager per-mutation path under single-stepping — same results,
        no coalescing.
        """
        keys = self._keys
        slots = self._slots
        when = keys[0]  # IndexError when empty, like the seed's heappop
        if when < self.now:
            raise SimulationError("event heap corrupted: time went backwards")
        bucket = slots[when]
        if bucket.__class__ is list:
            obj = bucket.pop(0)
            if not bucket:
                del slots[when]
                heappop(keys)
        else:
            obj = bucket
            del slots[when]
            heappop(keys)
        self.now = when
        if obj.__class__ is tuple:
            obj[0]._fire()
        else:
            obj()
        while self._instant_cbs and (not keys or keys[0] != self.now):
            self._run_instant_end()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the pending set drains or the clock reaches *until*.

        If *until* is given the clock is advanced exactly to *until*
        even when the last event fires earlier, mirroring SimPy.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        try:
            slots = self._slots
            keys = self._keys
            icbs = self._instant_cbs
            ready = self._ready
            pop = heappop
            timer_cls = Timer
            compact_at = self._cancel_seen + COMPACT_EPOCH_DELTA
            stop = math.inf if until is None else until
            while True:
                if icbs and (not keys or keys[0] != self.now):
                    # the current instant has fully drained: run its
                    # end-of-instant transactions (which may push new
                    # events at this very instant) before moving on
                    self._run_instant_end()
                    continue
                if timer_cls._cancel_epoch > compact_at:
                    # instant boundary: safe point to reap tombstones
                    self.compact()
                    compact_at = self._cancel_seen + COMPACT_EPOCH_DELTA
                    continue
                if not keys:
                    break
                when = keys[0]
                if when > stop:
                    break
                self.now = when
                bucket = slots[when]
                if bucket.__class__ is list:
                    # drained in place: same-instant work pushed by a
                    # callback appends to this very bucket and the
                    # iterator picks it up, preserving the seed's
                    # insertion-order tie-break; a same-instant cancel
                    # scans the bucket backwards, so it reaches the
                    # pending copy of a callback, never a fired one
                    for obj in bucket:
                        if obj.__class__ is tuple:
                            obj[0]._fire()
                        else:
                            obj()
                    del slots[when]
                    pop(keys)
                else:
                    # lone entry: it leaves the slot before it runs (so
                    # a cancel from inside the callback is the seed's
                    # no-op) and the ready list takes the slot, so
                    # same-instant pushes append there with no key push
                    pop(keys)
                    slots[when] = ready
                    if bucket.__class__ is tuple:
                        bucket[0]._fire()
                    else:
                        bucket()
                    if ready:
                        for obj in ready:
                            if obj.__class__ is tuple:
                                obj[0]._fire()
                            else:
                                obj()
                        ready.clear()
                    del slots[when]
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._running = False
            self._release_ready()

    def run_until_complete(self, process: "Process", limit: float = 1e9) -> Any:
        """Run until *process* finishes; return its value (raise its error).

        *limit* bounds runaway simulations; exceeding it raises
        :class:`SimulationError`.  Shares the reentrancy guard with
        :meth:`run` — the kernel has exactly one stepper.

        The awaited process keeps its completion Event (a process
        nobody waits on completes on the spot): the run stops in the
        completion's FIFO slot, after the same-instant work queued
        ahead of it, exactly where it always stopped.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        if not process._triggered:
            process.subscribe(_await)
        self._running = True
        try:
            slots = self._slots
            keys = self._keys
            icbs = self._instant_cbs
            ready = self._ready
            pop = heappop
            timer_cls = Timer
            compact_at = self._cancel_seen + COMPACT_EPOCH_DELTA
            while not process._processed:
                if icbs and (not keys or keys[0] != self.now):
                    # end of the current instant: run its transactions
                    # (they may push same-instant events) before either
                    # advancing time or declaring a deadlock
                    self._run_instant_end()
                    continue
                if timer_cls._cancel_epoch > compact_at:
                    self.compact()
                    compact_at = self._cancel_seen + COMPACT_EPOCH_DELTA
                    continue
                if not keys:
                    raise SimulationError("deadlock: process pending but no events")
                when = keys[0]
                if when > limit:
                    raise SimulationError(f"simulation exceeded time limit {limit}")
                self.now = when
                bucket = slots[when]
                if bucket.__class__ is not list:
                    # lone entry: as in run, the ready list takes the
                    # slot; a stop mid-chain parks the unfired rest
                    pop(keys)
                    slots[when] = ready
                    if bucket.__class__ is tuple:
                        bucket[0]._fire()
                    else:
                        bucket()
                    if ready:
                        n = 0
                        if not process._processed:
                            for obj in ready:
                                n += 1
                                if obj.__class__ is tuple:
                                    obj[0]._fire()
                                else:
                                    obj()
                                if process._processed:
                                    break
                        if n < len(ready):
                            rest = ready[n:]
                            slots[when] = rest if len(rest) > 1 else rest[0]
                            heappush(keys, when)
                            ready.clear()
                            continue
                        ready.clear()
                    del slots[when]
                    continue
                n = 0
                for obj in bucket:
                    n += 1
                    if obj.__class__ is tuple:
                        obj[0]._fire()
                    else:
                        obj()
                    if process._processed:
                        break
                if n < len(bucket):
                    # the awaited process finished mid-batch: the
                    # unfired rest stays parked in its slot, exactly
                    # the entries the seed would leave on its heap
                    rest = bucket[n:]
                    slots[when] = rest if len(rest) > 1 else rest[0]
                else:
                    del slots[when]
                    pop(keys)
            # the awaited process can finish mid-instant with
            # end-of-instant transactions still queued (e.g. a network
            # flush armed by its final mutation); run them before
            # returning so post-run state is settled and re-armable
            while self._instant_cbs:
                self._run_instant_end()
        finally:
            self._running = False
            self._release_ready()
        if not process.ok:
            raise process.exception  # type: ignore[misc]
        return process.value

    def _release_ready(self) -> None:
        """Hand the ready list's slot back if a callback raised mid-drain.

        The ready list's entries become an ordinary bucket with its key
        on the heap, so the wheel's invariants hold for a later run.
        When the lone entry raised, they are exactly the pending pushes;
        when a pushed entry raised, the ones the drain already ran stay
        in the bucket too, as a raising list bucket keeps them.
        """
        ready = self._ready
        when = self.now
        if self._slots.get(when) is not ready:
            return
        if ready:
            heappush(self._keys, when)
            self._ready = []
        else:
            del self._slots[when]


def _await(_process: Any) -> None:
    """Subscriber that keeps an awaited process's completion Event."""
