"""Shared resources for simulation processes.

- :class:`Resource` — a counted resource with a FIFO wait queue
  (e.g. a worker pool, a disk head, a CPU with N cores).  Its
  :meth:`~Resource.account` is the occupancy ledger: the one place a
  cohort's hidden members enter the busy statistics and the meter.
- :class:`Container` — a divisible quantity (e.g. bytes of memory);
  ``put`` and ``try_get`` never block.

Usage from a process::

    req = resource.request()
    yield req
    try:
        yield service_time
    finally:
        resource.release(req)

:meth:`Resource.acquire` does the same and skips the
:class:`Request` when a unit is free::

    claim = yield from resource.acquire()
    try:
        yield service_time
    finally:
        resource.release(claim)
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, Optional

from repro.sim.events import Event
from repro.sim.kernel import SimulationError, Simulator


class Request(Event):
    """A pending or granted claim on a :class:`Resource`."""

    __slots__ = ()

    @property
    def value(self) -> "Request":
        """The request itself, so ``yield req`` evaluates to the claim.

        The grant fires with no stored value: storing the request in
        itself would make every granted request a reference cycle.
        """
        return self


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

    def account(self, held: float, weight: int, meter: Any = None) -> None:
        """Enter one finished hold of *held* seconds into the ledger.

        This is cohort mode's occupancy ledger, and every resource
        hold on the server's request path ends with one call here.  A
        representative request holds one unit for one member's
        service; the other ``weight − 1`` members' identical demand is
        posted into the busy statistics, so windowed utilization (the
        monitor reads deltas of :meth:`busy_integral`) reflects the
        whole weighted crowd without one process per member.  When a
        *meter* (a :class:`~repro.core.cohort.CohortMeter`) is given,
        the hold is then recorded on it as ``meter.demand(self, held,
        weight)``, the input of positional queue synthesis.
        Occupancy (``in_use``, the wait queue) is deliberately
        untouched: the unrepresented members' queueing delay is
        synthesized by the cohort layer, not simulated.  A weight-1
        hold with no meter (exact mode) changes nothing.
        """
        if held < 0:
            raise SimulationError(f"{self.name}: negative hold in the ledger")
        if weight > 1:
            self._accumulate()
            self._busy_integral += (weight - 1) * held
        if meter is not None:
            meter.demand(self, held, weight)

    def _accumulate(self) -> None:
        now = self.sim.now
        self._busy_integral += self._in_use * (now - self._last_change)
        self._last_change = now

    # -- claims -------------------------------------------------------------

    def request(self) -> Request:
        """Claim one unit; the returned event fires when granted."""
        req = Request(self.sim)
        if self._in_use < self.capacity and not self._queue:
            self._grant(req)
        else:
            self._queue.append(req)
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
        if self._in_use < self.capacity and not self._queue:
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
        elif not req.triggered:
            raise SimulationError("releasing a request that was never granted")
        self._accumulate()
        self._in_use -= 1
        if self._in_use < 0:
            raise SimulationError(f"{self.name}: double release")
        self._dispatch()

    # -- queue mechanics ------------------------------------------------------

    def _take(self) -> None:
        self._accumulate()
        self._in_use += 1
        self.total_grants += 1

    def _grant(self, req: Request) -> None:
        self._take()
        req.succeed()

    def _dispatch(self) -> None:
        queue = self._queue
        while queue and self._in_use < self.capacity:
            self._grant(queue.popleft())


class Container:
    """A divisible quantity that never blocks.

    ``put`` raises on a capacity overrun and ``try_get`` refuses a
    withdrawal the level cannot cover, which matches its use for
    memory accounting where the interesting behaviour — swapping — is
    modelled by the caller inspecting :attr:`level`.
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

    def try_get(self, amount: float) -> bool:
        """Withdraw immediately if possible; never blocks."""
        if self._level >= amount:
            self._level -= amount
            return True
        return False
