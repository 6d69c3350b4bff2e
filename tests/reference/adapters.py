"""The frozen seed kernel and network, adapted to the live protocol.

:mod:`reference._seed_kernel` and :mod:`reference._seed_reference`
stay verbatim.  The subclasses here add only what the live library
asks of any kernel or network it runs on, each with the semantics the
frozen bodies had under the library's old fallbacks:

- :class:`SeedSimulator` — the kernel protocol a live
  :class:`~repro.sim.process.Process` and
  :class:`~repro.sim.events.Event` rely on: ``_push_now`` and
  ``_push_sleep`` are zero-delay and plain timers (a zero-delay timer
  takes the FIFO slot a hand-off takes), a sleep is cancelled through
  its ``Timer`` handle, ``_slots`` is always empty so a zero sleep
  never continues in place, plus the registry of unfinished processes
  and the ``close`` teardown;
- :class:`SeedNetwork` — ``start_transfer`` with the live signature;
  the seed predates weighted flows, so only ``weight=1`` is accepted.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from reference import _seed_kernel, _seed_reference
from repro.sim.kernel import SimulationError, close_processes


class SeedSimulator(_seed_kernel.Simulator):
    """The seed heap kernel speaking the live kernel protocol."""

    def __init__(self) -> None:
        super().__init__()
        self._procs: dict = {}
        #: no slots to look at: a zero sleep never continues in place
        self._slots: dict = {}

    def _push_now(self, fn: Callable[[], Any]) -> None:
        """A same-instant hand-off: a zero-delay timer, same FIFO slot."""
        self._push_timer(0.0, fn)

    def _push_sleep(
        self, delay: float, fn: Callable[[], Any]
    ) -> _seed_kernel.Timer:
        """A process's wake *delay* from now; the Timer is the handle."""
        return self._push_timer(delay, fn)

    def _cancel_sleep(self, timer: _seed_kernel.Timer, fn: Any) -> None:
        """Disarm the sleep ``_push_sleep`` returned *timer* for."""
        timer.cancel()

    def close(self) -> None:
        """Close every unfinished process, then drop every pending entry
        unrun (see :meth:`repro.sim.kernel.Simulator.close`)."""
        if self._running:
            raise SimulationError("close() inside a run")
        close_processes(self._procs)
        del self._heap[:]
        self._instant_cbs = []


class SeedNetwork(_seed_reference.Network):
    """The seed network with the live ``start_transfer`` signature."""

    def start_transfer(
        self, links: Sequence[Any], size_bytes: float, weight: int = 1
    ) -> _seed_reference.Transfer:
        if weight != 1:
            raise ValueError(
                f"the seed network has no weighted flows (weight={weight!r})"
            )
        return super().start_transfer(links, size_bytes)
