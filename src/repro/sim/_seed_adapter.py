"""The frozen seed kernel, adapted to the live process protocol.

:mod:`repro.sim._seed_kernel` stays verbatim.  :class:`SeedSimulator`
adds only what a live :class:`~repro.sim.process.Process` needs from
any kernel it runs on: the registry of unfinished processes and the
``close`` teardown, with the live kernel's semantics.
"""

from __future__ import annotations

from repro.sim import _seed_kernel
from repro.sim.kernel import SimulationError, close_processes


class SeedSimulator(_seed_kernel.Simulator):
    """The seed heap kernel with a process registry and ``close``."""

    def __init__(self) -> None:
        super().__init__()
        self._procs: dict = {}

    def close(self) -> None:
        """Close every unfinished process, then drop every pending entry
        unrun (see :meth:`repro.sim.kernel.Simulator.close`)."""
        if self._running:
            raise SimulationError("close() inside a run")
        close_processes(self._procs)
        del self._heap[:]
        self._instant_cbs = []
