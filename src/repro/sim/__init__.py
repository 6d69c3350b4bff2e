"""Discrete-event simulation kernel.

A small, dependency-free engine in the style of SimPy: simulation
processes are Python generators that ``yield`` events (timeouts, other
processes, resource requests) and are resumed by the kernel when those
events fire.  All MFC experiments run in simulated time on top of this
kernel — the library performs no real network or file I/O.

Public surface::

    sim = Simulator()
    proc = sim.process(my_generator(sim))
    sim.run(until=100.0)

Shared state between processes is a :class:`Resource` (counted units
with a FIFO queue and the cohort occupancy ledger,
:meth:`Resource.account`) or a :class:`Container` (a divisible
quantity, such as memory, that never blocks).
"""

from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.kernel import SimulationError, Simulator, Timer
from repro.sim.process import Interrupt, Process
from repro.sim.resources import Container, Resource
from repro.sim.rng import RNGRegistry
from repro.sim.trace import Probe, TraceLog

__all__ = [
    "AllOf",
    "AnyOf",
    "Container",
    "Event",
    "Interrupt",
    "Probe",
    "Process",
    "Resource",
    "RNGRegistry",
    "SimulationError",
    "Simulator",
    "Timeout",
    "Timer",
    "TraceLog",
]
