"""Shared resources for simulation processes.

- :class:`Resource` — a counted resource with a FIFO wait queue
  (e.g. a worker pool, a disk head, a CPU with N cores).
- :class:`PriorityResource` — like :class:`Resource` but the queue
  orders by a numeric priority (lower first), FIFO within a priority.
- :class:`Container` — a divisible quantity (e.g. bytes of memory).
- :class:`Store` — a queue of discrete items.

Usage from a process::

    req = resource.request()
    yield req
    try:
        yield service_time
    finally:
        resource.release(req)

A caller that never cancels its claim can use
:meth:`Resource.acquire` instead, which skips the :class:`Request`
when a unit is free::

    claim = yield from resource.acquire()
    try:
        yield service_time
    finally:
        resource.release(claim)
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Deque, Generator, List, Optional, Tuple

from repro.sim.events import Event
from repro.sim.kernel import SimulationError, Simulator


class Request(Event):
    """A pending or granted claim on a :class:`Resource`."""

    # ``priority`` is only populated by :class:`PriorityResource`
    __slots__ = ("resource", "cancelled", "priority")

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.sim)
        self.resource = resource
        self.cancelled = False

    def cancel(self) -> None:
        """Withdraw a queued request (no-op once granted)."""
        self.cancelled = True
        if not self.triggered:
            self.resource._drop(self)


class Resource:
    """Counted resource with FIFO queueing.

    Tracks utilization statistics (busy integral, peak queue length) so
    the server monitor can report them without extra probes.
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = "resource") -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._queue: Deque[Request] = deque()
        #: units taken with :meth:`claim` and not yet released
        self._claimed = 0
        # statistics
        self._busy_integral = 0.0
        self._last_change = sim.now
        self.peak_queue_len = 0
        self.total_grants = 0

    # -- introspection ------------------------------------------------------

    @property
    def in_use(self) -> int:
        """Number of currently granted claims."""
        return self._in_use

    @property
    def queue_len(self) -> int:
        """Number of requests waiting."""
        return len(self._queue)

    def utilization(self) -> float:
        """Time-averaged fraction of capacity in use since creation."""
        self._accumulate()
        elapsed = self.sim.now
        if elapsed <= 0:
            return 0.0
        return self._busy_integral / (elapsed * self.capacity)

    def busy_integral(self) -> float:
        """Cumulative unit-seconds of use (for windowed utilization)."""
        self._accumulate()
        return self._busy_integral

    def account(self, busy_unit_seconds: float) -> None:
        """Post externally-performed work into the busy statistics.

        Cohort mode runs one representative request through the real
        pipeline and *accounts* the other members' identical service
        demand here, so windowed utilization (the monitor reads deltas
        of :meth:`busy_integral`) reflects the whole weighted crowd
        without one process per member.  Occupancy (``in_use``, the
        wait queue) is deliberately untouched — queueing delay for the
        unrepresented members is synthesized positionally by the
        cohort layer, not simulated.
        """
        if busy_unit_seconds < 0:
            raise SimulationError("negative busy accounting")
        self._accumulate()
        self._busy_integral += busy_unit_seconds

    def _accumulate(self) -> None:
        now = self.sim.now
        self._busy_integral += self._in_use * (now - self._last_change)
        self._last_change = now

    # -- claims -------------------------------------------------------------

    def request(self) -> Request:
        """Claim one unit; the returned event fires when granted."""
        req = Request(self)
        if self._free_unit():
            self._grant(req)
        else:
            self._enqueue(req)
            self.peak_queue_len = max(self.peak_queue_len, len(self._queue))
        return req

    def acquire(self, meter: Any = None) -> Generator:
        """Process body: take one unit; returns the claim to release.

        A free unit is claimed on the spot (:meth:`claim`) and the body
        yields ``0.0``: the same-instant FIFO slot the grant's firing
        would hold, without a :class:`Request`.  Otherwise it queues a
        request, waits for the grant and reports the wait to
        ``meter.waited(seconds)`` when a *meter* is given.  Hand the
        returned claim (None or the request) to :meth:`release`.
        """
        if self.claim():
            yield 0.0
            return None
        req = self.request()
        queued_at = self.sim.now
        yield req
        if meter is not None:
            meter.waited(self.sim.now - queued_at)
        return req

    def claim(self) -> bool:
        """Take one unit at once if :meth:`request` would grant it at
        once; False (and nothing changes) when the caller must queue.
        A claimed unit is returned with ``release()``, no request."""
        if self._free_unit():
            self._take()
            self._claimed += 1
            return True
        return False

    def release(self, req: Optional[Request] = None) -> None:
        """Return a granted unit to the pool.

        *req* is the granted :class:`Request`, or None for a unit taken
        with :meth:`claim`.  A bare ``release()`` with no claimed unit
        outstanding raises: it cannot free a unit held by a request.
        """
        if req is None:
            if not self._claimed:
                raise SimulationError(f"{self.name}: releasing a claim that was never taken")
            self._claimed -= 1
        elif not req.triggered or req.cancelled:
            raise SimulationError("releasing a request that was never granted")
        self._accumulate()
        self._in_use -= 1
        if self._in_use < 0:
            raise SimulationError(f"{self.name}: double release")
        self._dispatch()

    # -- queue mechanics ------------------------------------------------------

    def _free_unit(self) -> bool:
        # a claim is granted at once: a unit is free and nobody queues
        return self._in_use < self.capacity and not self._queue

    def _enqueue(self, req: Request) -> None:
        self._queue.append(req)

    def _pop_next(self) -> Optional[Request]:
        while self._queue:
            req = self._queue.popleft()
            if not req.cancelled:
                return req
        return None

    def _drop(self, req: Request) -> None:
        # Lazy removal: cancelled requests are skipped at pop time, but
        # eagerly removing keeps queue_len honest for small queues.
        try:
            self._queue.remove(req)
        except ValueError:
            pass

    def _take(self) -> None:
        self._accumulate()
        self._in_use += 1
        self.total_grants += 1

    def _grant(self, req: Request) -> None:
        self._take()
        req.succeed(value=req)

    def _dispatch(self) -> None:
        while self._in_use < self.capacity:
            nxt = self._pop_next()
            if nxt is None:
                return
            self._grant(nxt)


class PriorityResource(Resource):
    """Resource whose queue orders by (priority, FIFO)."""

    def __init__(self, sim: Simulator, capacity: int, name: str = "presource") -> None:
        super().__init__(sim, capacity, name)
        self._pheap: List[Tuple[float, int, Request]] = []
        self._tick = itertools.count()

    def request(self, priority: float = 0.0) -> Request:  # type: ignore[override]
        req = Request(self)
        req.priority = priority  # type: ignore[attr-defined]
        if self._free_unit():
            self._grant(req)
        else:
            heapq.heappush(self._pheap, (priority, next(self._tick), req))
            self.peak_queue_len = max(self.peak_queue_len, len(self._pheap))
        return req

    def _free_unit(self) -> bool:
        return self._in_use < self.capacity and not self._pheap

    @property
    def queue_len(self) -> int:  # type: ignore[override]
        return sum(1 for _, _, r in self._pheap if not r.cancelled)

    def _pop_next(self) -> Optional[Request]:
        while self._pheap:
            _, _, req = heapq.heappop(self._pheap)
            if not req.cancelled:
                return req
        return None

    def _drop(self, req: Request) -> None:
        pass  # lazy removal via the cancelled flag


class Container:
    """A divisible quantity with blocking ``get``.

    ``put`` never blocks (capacity overruns raise), which matches its
    use for memory accounting where the interesting behaviour —
    swapping — is modelled by the caller inspecting :attr:`level`.
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: float = float("inf"),
        init: float = 0.0,
        name: str = "container",
    ) -> None:
        if init < 0 or init > capacity:
            raise SimulationError("init must be within [0, capacity]")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._level = init
        self._waiters: Deque[Tuple[float, Event]] = deque()
        self.peak_level = init

    @property
    def level(self) -> float:
        """Current stored amount."""
        return self._level

    def put(self, amount: float) -> None:
        """Add *amount* immediately."""
        if amount < 0:
            raise SimulationError("negative put")
        if self._level + amount > self.capacity + 1e-9:
            raise SimulationError(
                f"{self.name}: put of {amount} overflows capacity {self.capacity}"
            )
        self._level += amount
        self.peak_level = max(self.peak_level, self._level)
        self._drain()

    def get(self, amount: float) -> Event:
        """Return an event that fires once *amount* can be withdrawn."""
        if amount < 0:
            raise SimulationError("negative get")
        ev = Event(self.sim)
        if not self._waiters and self._level >= amount:
            self._level -= amount
            ev.succeed(value=amount)
        else:
            self._waiters.append((amount, ev))
        return ev

    def try_get(self, amount: float) -> bool:
        """Withdraw immediately if possible; never blocks."""
        if not self._waiters and self._level >= amount:
            self._level -= amount
            return True
        return False

    def _drain(self) -> None:
        while self._waiters and self._level >= self._waiters[0][0]:
            amount, ev = self._waiters.popleft()
            self._level -= amount
            ev.succeed(value=amount)


class Store:
    """FIFO queue of discrete items with blocking ``get``."""

    def __init__(self, sim: Simulator, capacity: float = float("inf"), name: str = "store") -> None:
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> bool:
        """Append *item*; returns False (drop) when the store is full."""
        if len(self._items) >= self.capacity:
            return False
        if self._getters:
            self._getters.popleft().succeed(value=item)
        else:
            self._items.append(item)
        return True

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        ev = Event(self.sim)
        if self._items:
            ev.succeed(value=self._items.popleft())
        else:
            self._getters.append(ev)
        return ev
