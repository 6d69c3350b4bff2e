"""Declarative, seed-deterministic fault injection.

The paper's probing tool runs against *live, uncontrolled* targets:
clients vanish mid-experiment, servers restart, reports get lost.  This
package lets a world declare those failures up front so the hardened
measurement pipeline can be exercised deterministically:

- :mod:`repro.faults.spec` — the serializable :class:`FaultSpec` /
  :class:`FaultEvent` plan that rides a
  :class:`~repro.worlds.spec.WorldSpec`, plus the named
  :data:`FAULT_PRESETS` the CLI exposes as ``repro run --faults NAME``;
- :mod:`repro.faults.inject` — the :class:`FaultInjector` runtime that
  schedules window edges on the sim kernel and gates client requests,
  probes, and reports;
- :mod:`repro.faults.chaos` — the chaos harness: grid-runs fault
  presets against the scenario registry and asserts every faulted
  verdict either matches the fault-free verdict or is explicitly
  inconclusive/aborted — never silently wrong.

:mod:`repro.faults.chaos` pulls in the campaign engine, so it is not
re-exported here; import it directly where needed.
"""

from repro.faults.inject import FaultInjector
from repro.faults.spec import (
    FAULT_KINDS,
    FAULT_PRESETS,
    FaultEvent,
    FaultSpec,
    fault_spec_from_names,
)

__all__ = [
    "FAULT_KINDS",
    "FAULT_PRESETS",
    "FaultEvent",
    "FaultSpec",
    "FaultInjector",
    "fault_spec_from_names",
]
