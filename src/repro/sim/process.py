"""Generator-based simulation processes.

A process wraps a Python generator.  Each ``yield`` hands the kernel
one of two things:

- an :class:`~repro.sim.events.Event` — the process sleeps until that
  event fires, then resumes with the event's value (or has the event's
  exception thrown into it);
- a plain **number** — shorthand for "sleep this many seconds".  The
  kernel pushes the process's wake callback at that instant (no Event,
  no subscriber list, no handle: the process records only the
  instant), which is the fast path the server pipeline's CPU/disk
  service times and the coordinator's epoch waits ride on.
  ``yield 0.25`` behaves exactly like ``yield sim.timeout(0.25)``,
  resuming with ``None``.

A :class:`Process` is itself an event that fires when the generator
returns, so processes can wait on each other.  Only a process someone
waits on schedules that completion: one that returns with no
subscriber is marked processed on the spot (a later subscriber gets
the usual late-subscriber hand-off), and
:meth:`~repro.sim.kernel.Simulator.run_until_complete` subscribes to
the process it awaits, so it stops in the completion's FIFO slot.  A
failure always fires, so an unwatched one still surfaces from the run.

**Starting and sleeping.**  Each process binds one wake callback,
``_wake``, when it is created; it is both the start entry and every
sleep entry.  Creating a process pushes it at the current instant (no
start Event): when it fires, the generator runs to its first
``yield``.  The push takes the FIFO slot a zero-delay start Event
would take, so processes created at one instant start in creation
order, after everything already queued there.  The start is not
cancellable: a process interrupted before its first step still runs
to its first ``yield``, and the :class:`Interrupt` is thrown in there.
Interrupt delivery is the same kind of bare hand-off.  An interrupt
during a sleep cancels the pending wake through the kernel's
``_cancel_sleep``, which tombstones it by its instant and identity,
as ``Timer.cancel`` does.

**In-place continuation.**  A ``yield 0`` inside ``_wake`` continues
the generator on the spot when the wake it would push is the entry
the kernel would run next anyway (see the kernel's docstring): no
push, no kernel round trip, the same results.  Resumes from an Event
(``_resume``) never continue in place, because other subscribers of
that Event may still run after them.

**Teardown.**  A process sits in its kernel's registry of unfinished
processes from creation until it returns or fails.
:meth:`~repro.sim.kernel.Simulator.close` closes the ones still there
once a world's result is in hand, so a process that will never be
woken does not keep the world alive in a reference cycle.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.sim.events import Event
from repro.sim.kernel import SimulationError, Simulator


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """A running simulation process (also an awaitable event)."""

    __slots__ = ("_gen", "_waiting_on", "_wake", "_sleep_at")

    def __init__(self, sim: Simulator, generator: Generator) -> None:
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"process body must be a generator, got {type(generator).__name__}"
            )
        self._gen = generator
        self._waiting_on: Optional[Event] = None
        #: the pending sleep, as ``_push_sleep`` returned it
        self._sleep_at: Any = None
        self._wake = wake = self._advance
        sim._procs[self] = None
        sim._push_now(wake)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its yield point.

        No-op if the process already finished.  The event (or sleep)
        the process was waiting on is detached, so a later firing of
        that event is ignored by this process.  So is the wait the
        process is in when the interrupt lands, which differs when an
        earlier interrupt of the same instant landed first.
        """
        if self._triggered:
            return
        self._detach()
        self.sim._push_now(lambda: self._throw_in(Interrupt(cause)))

    # -- internals ---------------------------------------------------------

    def _detach(self) -> None:
        target = self._waiting_on
        if target is not None:
            target.unsubscribe(self._resume)
            self._waiting_on = None
        at = self._sleep_at
        if at is not None:
            self._sleep_at = None
            self.sim._cancel_sleep(at, self._wake)

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

    def _advance(self) -> None:
        """The wake entry: run the generator on from its start or sleep."""
        self._sleep_at = None
        gen = self._gen
        while True:
            try:
                target = gen.send(None)
            except StopIteration as stop:
                self._finish(stop.value)
                return
            except BaseException as err:
                self._finish_failed(err)
                return
            cls = target.__class__
            if (cls is float or cls is int) and target == 0:
                # continue in place when this wake would run next: the
                # lone entry with an empty ready list behind it, or the
                # last cell of the list being drained
                sim = self.sim
                cur = sim._slots.get(sim.now)
                if cur.__class__ is list and (not cur or cur[-1] is self._wake):
                    continue
            self._wait_on(target)
            return

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

    def _wait_on(self, target: Any) -> None:
        cls = target.__class__
        if cls is float or cls is int:
            # bare-number sleep: one wake push, no Event machinery
            if target < 0:
                self._gen.close()
                self._finish_failed(
                    SimulationError(f"negative sleep: {target!r}")
                )
                return
            self._sleep_at = self.sim._push_sleep(target, self._wake)
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

    def _close(self) -> None:
        """Kernel teardown: leave the Event waited on, drop the wake and
        close the generator (see :func:`~repro.sim.kernel.close_processes`)."""
        target = self._waiting_on
        if target is not None:
            self._waiting_on = None
            target.unsubscribe(self._resume)
        self._wake = self._sleep_at = None
        self._gen.close()

    def _finish(self, value: Any) -> None:
        # the wake refers back to the process and the kernel registry
        # holds it: drop both, so a finished process is freed by
        # refcount rather than the cycle collector
        self._wake = None
        del self.sim._procs[self]
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
        self._wake = None
        del self.sim._procs[self]
        self.fail(err)
