"""Events: the unit of synchronization between simulation processes.

An :class:`Event` moves through three states:

1. *pending* — created, nothing scheduled;
2. *triggered* — a firing has been scheduled on the kernel heap
   (via :meth:`Event.succeed` / :meth:`Event.fail`);
3. *processed* — the firing happened and all subscribed callbacks ran.

Subscribing to an already-processed event hands the callback off to
the current instant, so late subscribers never deadlock.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

from repro.sim.kernel import SimulationError, Simulator

Callback = Callable[["Event"], None]


def deadline(sim: Simulator, event: "Event", delay: float) -> "Event":
    """An Event that fires once *event* fires or *delay* seconds pass.

    The form of ``AnyOf([event, Timeout(delay)])`` for a caller that
    reads *event*, not the condition's value: the deadline is a
    cancellable ``call_in`` instead of a Timeout Event, cancelled once
    *event* fires, and the returned Event resolves in the FIFO slot the
    AnyOf did.  A failure of *event* before the deadline fails it (the
    failure is defused, as AnyOf's); after the deadline *event* is left
    alone, as AnyOf left it.
    """
    done = Event(sim)

    def on_event(ev: Event) -> None:
        if done._triggered:
            return
        timer.cancel()
        if ev._ok:
            done.succeed()
        else:
            ev._defused = True
            done.fail(ev._exc)  # type: ignore[arg-type]

    timer = sim.call_in(delay, done.succeed)
    event.subscribe(on_event)
    return done


class Event:
    """A one-shot occurrence in simulated time."""

    __slots__ = (
        "sim",
        "_callbacks",
        "_triggered",
        "_processed",
        "_ok",
        "_value",
        "_exc",
        "_defused",
    )

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._callbacks: Optional[List[Callback]] = []
        self._triggered = False
        self._processed = False
        self._ok: Optional[bool] = None
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        # Set True when a process consumed the failure, so the kernel
        # does not re-raise it at the top level.
        self._defused = False

    # -- state ----------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once a firing has been scheduled."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Valid only once processed."""
        if self._ok is None:
            raise SimulationError("event has not fired yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The success value.  Valid only once processed."""
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The failure exception, if the event failed."""
        return self._exc

    # -- triggering -------------------------------------------------------

    def _mark_triggered(self, value: Any = None, exc: Optional[BaseException] = None) -> None:
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        self._exc = exc
        self._ok = exc is None

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule this event to fire successfully with *value*."""
        self._mark_triggered(value=value)
        self.sim.schedule(self, delay)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        """Schedule this event to fire as a failure carrying *exc*."""
        if not isinstance(exc, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._mark_triggered(exc=exc)
        self.sim.schedule(self, delay)
        return self

    def _fire(self) -> None:
        if self._processed:
            raise SimulationError("event fired twice")
        self._processed = True
        callbacks, self._callbacks = self._callbacks, None
        for cb in callbacks or ():
            cb(self)
        if self._ok is False and not self._defused:
            # Nobody waited on this failure: surface it loudly rather
            # than letting the error pass silently.
            raise self._exc  # type: ignore[misc]

    # -- subscription ------------------------------------------------------

    def subscribe(self, callback: Callback) -> None:
        """Run *callback(event)* when the event fires.

        Safe to call on processed events (the callback is handed off
        to the current instant).
        """
        if self._callbacks is not None:
            self._callbacks.append(callback)
            return
        self.sim._push_now(lambda: callback(self))

    def unsubscribe(self, callback: Callback) -> bool:
        """Remove *callback* if still pending.  Returns True if removed."""
        if self._callbacks is not None and callback in self._callbacks:
            self._callbacks.remove(callback)
            return True
        return False


class Timeout(Event):
    """An event that fires after a fixed delay.

    Use a Timeout when the firing must be an :class:`Event` (joined in
    ``AllOf``/``AnyOf``, carrying a value, subscribed to).  A process
    that only wants to pause should ``yield delay`` instead — the
    kernel's bare-:class:`~repro.sim.kernel.Timer` fast path.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: Simulator, delay: float, value: Any = None) -> None:
        super().__init__(sim)
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        self.delay = delay
        self.succeed(value=value, delay=delay)


class _Condition(Event):
    """Shared machinery for :class:`AllOf` / :class:`AnyOf`."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: Simulator, events: Sequence[Event]) -> None:
        super().__init__(sim)
        self.events = list(events)
        self._pending = 0
        for ev in self.events:
            if not isinstance(ev, Event):
                raise SimulationError(f"not an event: {ev!r}")
        if not self.events:
            self.succeed(value={})
            return
        for ev in self.events:
            self._pending += 1
            ev.subscribe(self._on_child)

    def _on_child(self, ev: Event) -> None:
        raise NotImplementedError

    def _results(self) -> dict:
        return {
            ev: ev.value
            for ev in self.events
            if ev.processed and ev._ok
        }


class AllOf(_Condition):
    """Fires when every child event has fired (fails fast on failure)."""

    __slots__ = ()

    def _on_child(self, ev: Event) -> None:
        if self._triggered:
            return
        if not ev.ok:
            ev._defused = True
            self.fail(ev.exception)  # type: ignore[arg-type]
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(value=self._results())


class AnyOf(_Condition):
    """Fires when the first child event fires (propagates its failure)."""

    __slots__ = ()

    def _on_child(self, ev: Event) -> None:
        if self._triggered:
            return
        if not ev.ok:
            ev._defused = True
            self.fail(ev.exception)  # type: ignore[arg-type]
            return
        self.succeed(value=self._results())
