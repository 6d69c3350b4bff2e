"""Generator-based simulation processes.

A process wraps a Python generator.  Each ``yield`` hands the kernel
one of two things:

- an :class:`~repro.sim.events.Event` — the process sleeps until that
  event fires, then resumes with the event's value (or has the event's
  exception thrown into it);
- a plain **number** — shorthand for "sleep this many seconds".  The
  kernel schedules a bare :class:`~repro.sim.kernel.Timer` (no Event
  allocation, no subscriber list), which is the fast path the server
  pipeline's CPU/disk service times and the coordinator's epoch waits
  ride on.  ``yield 0.25`` behaves exactly like
  ``yield sim.timeout(0.25)``, resuming with ``None``.

A :class:`Process` is itself an event that fires when the generator
returns, so processes can wait on each other.  Only a process someone
waits on schedules that completion: one that returns with no
subscriber is marked processed on the spot (a later subscriber gets
the usual late-subscriber hand-off), and
:meth:`~repro.sim.kernel.Simulator.run_until_complete` subscribes to
the process it awaits, so it stops in the completion's FIFO slot.  A
failure always fires, so an unwatched one still surfaces from the run.

**Starting.**  Creating a process pushes one bare callback at the
current instant (no start Event): when it fires, the generator runs
to its first ``yield``.  The push takes the FIFO slot a zero-delay
start Event would take, so processes created at one instant start in
creation order, after everything already queued there.  The start is
not cancellable: a process interrupted before its first step still
runs to its first ``yield``, and the :class:`Interrupt` is thrown in
there.  Interrupt delivery is the same kind of bare hand-off.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.sim.events import Event, _hand_off
from repro.sim.kernel import SimulationError, Simulator, Timer


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class _Wake:
    """Event-shaped singleton the start push and sleep timers resume a
    process with (always ok, value ``None``), so they reuse the one
    resume path instead of duplicating it."""

    __slots__ = ()
    _ok = True
    value = None


_WAKE = _Wake()


class Process(Event):
    """A running simulation process (also an awaitable event)."""

    __slots__ = ("_gen", "_waiting_on", "_sleep_timer")

    def __init__(self, sim: Simulator, generator: Generator) -> None:
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"process body must be a generator, got {type(generator).__name__}"
            )
        self._gen = generator
        self._waiting_on: Optional[Event] = None
        self._sleep_timer: Optional[Timer] = None
        _hand_off(sim, self._start)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its yield point.

        No-op if the process already finished.  The event (or sleep
        timer) the process was waiting on is detached, so a later
        firing of that event is ignored by this process.  So is the
        wait the process is in when the interrupt lands, which differs
        when an earlier interrupt of the same instant landed first.
        """
        if self._triggered:
            return
        self._detach()
        _hand_off(self.sim, lambda: self._throw_in(Interrupt(cause)))

    # -- internals ---------------------------------------------------------

    def _detach(self) -> None:
        target = self._waiting_on
        if target is not None:
            target.unsubscribe(self._resume)
            self._waiting_on = None
        timer = self._sleep_timer
        if timer is not None:
            timer.cancel()
            self._sleep_timer = None

    def _throw_in(self, exc: BaseException) -> None:
        if self._triggered:
            return
        self._detach()
        try:
            target = self._gen.throw(exc)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except BaseException as err:
            self._finish_failed(err)
            return
        self._wait_on(target)

    def _start(self) -> None:
        self._resume(_WAKE)

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
            self._sleep_timer = self.sim._push_timer(
                target, self._resume_from_sleep
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

    def _finish(self, value: Any) -> None:
        if self._callbacks:
            self.succeed(value)
            return
        # nobody waits: processed on the spot, no completion Event (a
        # later subscriber is handed off to its own instant)
        self._triggered = self._processed = True
        self._ok = True
        self._value = value
        self._callbacks = None

    def _finish_failed(self, err: BaseException) -> None:
        # a failure always fires: unwatched, it surfaces from the run
        self.fail(err)
