"""Frozen references the live kernel and network are checked against.

- :mod:`reference._seed_kernel` — the pre-wheel heap kernel, verbatim;
- :mod:`reference._seed_reference` — the pre-coalescing ``Network``,
  verbatim;
- :mod:`reference.adapters` — thin subclasses that let both frozen
  bodies run under the live protocol (:class:`SeedSimulator`,
  :class:`SeedNetwork`);
- :mod:`reference.difftest` — the differential property harness that
  replays random operation sequences on the wheel and seed kernels.

None of it ships with the package: the library runs one kernel
protocol and one network, and these modules check them from outside.
"""
