"""The slot-bucket timer wheel backing the kernel's pending-event set.

The seed kernel kept one big ``(when, eid, obj)`` heap.  Profiling the
``kernel.timers`` bench showed the cost was split between tuple
comparisons during sift-down (every comparison unpacks ``when`` and,
on the frequent timestamp ties, falls through to the ``eid`` field)
and — the larger share — garbage-collector pauses driven by the two
retained, GC-tracked allocations per scheduled entry (the heap tuple
and the Timer object).  This module replaces the tuple heap with a
calendar-queue-style structure that retains *nothing beyond the
callback itself*:

- ``slots`` — a dict mapping each *exact* float timestamp to the
  entries pending at that instant.  An entry is a callable: the bare
  callback (timers) or a full Event's bound ``_fire`` (much rarer).
  A slot holding a single entry stores it directly; a second
  same-instant arrival promotes the slot to a list in FIFO order.
- ``keys`` — a min-heap of the occupied slot timestamps, one float per
  distinct instant.  Heap operations compare bare floats (a single
  C-level compare, no tie-break), and same-instant entries never touch
  the heap beyond the first.

FIFO order inside an instant is the list append order, which is
exactly the seed's insertion-order (``eid``) tie-break.  Keying on the
exact float timestamp — rather than quantizing to integer
nanoseconds — is deliberate: the float clock is observable through
``sim.now`` in every committed result, and two distinct floats can
share a nanosecond bucket, so any quantized key would change
same-instant semantics and break byte-identical world fingerprints.
The heap's single-float compares deliver the "kill the tuple-compare
cost" goal without touching the arithmetic.

**Timer handles and tombstone cancellation.**  :class:`Timer` is a
*handle*, not the pending entry: it records ``(sim, when, fn)`` and is
dropped by refcount the moment the caller discards it, so scheduling a
million fire-and-forget timers leaves only the callbacks themselves
alive (this is what restores the garbage collector's cadence to the
structural floor).  ``cancel()`` looks the entry up by slot key and
identity and replaces it with the :data:`TOMBSTONE` no-op — the slot
keeps its shape, the clock still visits the instant (seed-identical),
and nothing is ever shifted or re-heapified on the hot path.  Buckets
are drained in place and deleted only once the instant completes, so a
cancellation arriving mid-instant (from another callback at the same
timestamp) still finds the bucket; the cancel scan runs *backwards*
because a pending duplicate of an already-fired callback always sits
later in FIFO order.  ``run_until_complete`` — which may stop
mid-bucket when the awaited process finishes — parks only the unfired
rest of the bucket in its slot, so nothing it dispatched refires.
Every effective cancellation bumps a class-level epoch counter; once more
than :data:`COMPACT_EPOCH_DELTA` cancellations accumulate, the kernel
calls :meth:`TimerWheel.compact` at a safe point (top of the run loop,
never mid-drain), which drops tombstones and rebuilds ``keys`` *in
place* so the run loop's local aliases stay valid.  Reaping is
invisible to fire order and to ``now`` at every fire: tombstones never
run user code, and instant-end callbacks never survive past their own
instant.

**Process sleeps hold no handle.**  A sleeping process records only
the instant of its pending wake (its one cached wake callback, see
``process.py``); an interrupt tombstones that entry with
:func:`cancel_entry`, the same slot scan ``Timer.cancel`` uses.
"""

from __future__ import annotations

from heapq import heapify, heappush
from typing import Any, Callable, Dict, List, Optional

#: cancellations tolerated since the last scan before the kernel
#: compacts the wheel at its next safe point
COMPACT_EPOCH_DELTA = 1024


def TOMBSTONE() -> None:
    """Slot entry left by ``Timer.cancel()`` — fires as a no-op."""


class Timer:
    """A scheduled bare callback — the fast-path timer handle.

    The handle is not the pending entry (the wheel stores the callback
    itself); it exists to support ``cancel()`` and ``active``.
    ``cancel()`` replaces the pending entry with :data:`TOMBSTONE` by
    slot-key lookup plus identity scan: O(1) for the common lone-entry
    slot, O(bucket) within a dense instant.  The slot keeps its shape,
    which is how the fluid network supersedes its completion timer
    without leaking a closure per recompute, and why a cancelled
    instant still advances the clock exactly like the seed kernel.
    """

    __slots__ = ("sim", "when", "fn")

    #: tombstone epoch: total effective cancellations, all simulators
    _cancel_epoch = 0

    def __init__(self, sim: Any, when: float, fn: Optional[Callable[[], Any]]) -> None:
        self.sim = sim
        self.when = when
        self.fn = fn

    def cancel(self) -> None:
        """Disarm the timer; the pending slot entry becomes a no-op."""
        fn = self.fn
        if fn is None:
            return
        self.fn = None
        cancel_entry(self.sim._slots, self.when, fn)

    @property
    def active(self) -> bool:
        """True while the callback is still armed (pending, uncancelled)."""
        fn = self.fn
        if fn is None:
            return False
        cur = self.sim._slots.get(self.when)
        if cur is None:
            return False
        if cur.__class__ is list:
            return any(entry is fn for entry in cur)
        return cur is fn


def cancel_entry(slots: Dict[float, Any], when: float, fn: Any) -> None:
    """Tombstone the pending entry *fn* at instant *when*, if there.

    A no-op when the slot has drained or holds no pending *fn*.  A list
    slot is scanned backwards: while its instant is mid-drain the run
    loop leaves already-fired cells in place, and a pending duplicate
    of a fired callback always sits later in FIFO order, so the reverse
    scan tombstones the pending copy.
    """
    cur = slots.get(when)
    if cur is None:
        return
    if cur.__class__ is list:
        for i in range(len(cur) - 1, -1, -1):
            if cur[i] is fn:
                cur[i] = TOMBSTONE
                Timer._cancel_epoch += 1
                return
    elif cur is fn:
        slots[when] = TOMBSTONE
        Timer._cancel_epoch += 1


class TimerWheel:
    """Slot buckets plus a key-heap of occupied instants.

    The kernel's hot paths inline :meth:`push` against direct aliases
    of ``slots``/``keys`` (one attribute hop fewer per event); this
    class is the reference implementation of the invariants and owns
    the cold-path maintenance: compaction and stats.  All rebuilds
    mutate ``slots``/``keys`` in place — never rebind them — so the
    kernel's aliases stay valid.

    Invariants:

    - ``keys`` holds each occupied slot timestamp exactly once, except
      the instant whose lone entry the kernel is running: its slot
      holds the kernel's ready list and its key is off the heap until
      the drain ends (see ``kernel.py``);
    - ``slots[when]`` is a bare entry or a list of two or more entries
      in FIFO order, where an entry is a callable (a timer callback,
      an Event's bound ``_fire`` or :data:`TOMBSTONE`).  Two exceptions:
      ``step`` may leave a one-entry list behind the entry it popped,
      and the only empty list a slot ever holds is the kernel's ready
      list while the instant's lone entry runs;
    - buckets are drained in place and removed from ``slots`` only at
      the end of the instant, so a same-instant ``cancel()`` still
      reaches every not-yet-fired entry (via its backward scan), and
      compaction — which only runs between instants — never races a
      drain.  ``run_until_complete`` parks only the unfired rest of a
      bucket it abandons mid-drain, so nothing refires.
    """

    __slots__ = ("slots", "keys")

    def __init__(self) -> None:
        self.slots: Dict[float, Any] = {}
        self.keys: List[float] = []

    def push(self, when: float, entry: Any) -> None:
        """Append *entry* to the instant *when* (reference path)."""
        slots = self.slots
        cur = slots.get(when)
        if cur is None:
            slots[when] = entry
            heappush(self.keys, when)
        elif cur.__class__ is list:
            cur.append(entry)
        else:
            slots[when] = [cur, entry]

    def peek(self) -> Optional[float]:
        """Earliest occupied instant, or ``None`` when empty."""
        return self.keys[0] if self.keys else None

    def __len__(self) -> int:
        """Total pending entries, tombstones included."""
        n = 0
        for bucket in self.slots.values():
            n += len(bucket) if bucket.__class__ is list else 1
        return n

    def stats(self) -> Dict[str, int]:
        """Occupancy snapshot: slots, entries, live, tombstones."""
        entries = 0
        dead = 0
        for bucket in self.slots.values():
            if bucket.__class__ is list:
                for entry in bucket:
                    entries += 1
                    if entry is TOMBSTONE:
                        dead += 1
            else:
                entries += 1
                if bucket is TOMBSTONE:
                    dead += 1
        return {
            "slots": len(self.slots),
            "entries": entries,
            "live": entries - dead,
            "tombstones": dead,
        }

    def compact(self) -> int:
        """Drop cancelled entries from every slot; return the count.

        Rebuilds ``keys`` in place when slots empty out.  Only safe at
        instant boundaries (the kernel calls it at the top of its run
        loops, never mid-drain).
        """
        slots = self.slots
        removed = 0
        keys_dirty = False
        for when in list(slots):
            bucket = slots[when]
            if bucket.__class__ is list:
                live = [e for e in bucket if e is not TOMBSTONE]
                dead = len(bucket) - len(live)
                if dead:
                    removed += dead
                    if not live:
                        del slots[when]
                        keys_dirty = True
                    elif len(live) == 1:
                        slots[when] = live[0]
                    else:
                        slots[when] = live
            elif bucket is TOMBSTONE:
                del slots[when]
                keys_dirty = True
                removed += 1
        if keys_dirty:
            self.keys[:] = slots.keys()
            heapify(self.keys)
        return removed
