"""Server hardware/software resource bundle.

:class:`ServerSpec` is the declarative description of one server box
(the knobs the presets and the population generator turn);
:class:`ServerResources` instantiates the simulated resources for it.

Design notes
------------
- *CPU* is a multi-core :class:`~repro.sim.resources.Resource`; service
  times divide by ``cpu_speed`` so a 2x box halves compute time.
- *Memory* is a :class:`~repro.sim.resources.Container` whose level
  above physical RAM puts the box into swap: every CPU/disk/DB service
  time is multiplied by :meth:`ServerResources.swap_factor`.  This is
  the mechanism behind the paper's Figure 6 FastCGI blow-up, and the
  reason the paper notes MFCs are *not* well suited to finding memory
  buffer limits — the degradation is a cliff, not a slope (§3.3).
- *Disk* is a capacity-1 resource (one head) with seek + streaming
  time, i.e. a serialization bottleneck in the sense of §3.3.
- *Workers* is the Apache worker-MPM thread pool; the listen backlog
  bounds how many connections may queue for it before overload
  responses (503s) appear.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.sim.kernel import Simulator
from repro.sim.resources import Container, Resource
from repro.server.backends import BackendSpec
from repro.server.database import DatabaseSpec

MIB = 1024.0 * 1024.0
GIB = 1024.0 * MIB


@dataclass(frozen=True)
class ServerSpec:
    """Declarative description of one server box."""

    name: str = "server"
    cpu_cores: int = 1
    #: relative CPU speed; 1.0 ≈ the paper's 3 GHz Pentium-4
    cpu_speed: float = 1.0
    #: worker threads (Apache worker MPM ThreadsPerChild * children)
    max_workers: int = 256
    listen_backlog: int = 511
    ram_bytes: float = 1.0 * GIB
    #: resident set of the OS + server processes before any request
    baseline_memory_bytes: float = 300.0 * MIB
    #: per-worker-thread memory while handling a request
    per_request_memory_bytes: float = 1.0 * MIB
    swap_bytes: float = 2.0 * GIB
    #: slowdown multiplier slope once memory exceeds RAM
    swap_slowdown: float = 20.0
    disk_bandwidth_bps: float = 40.0 * MIB
    disk_seek_s: float = 0.008
    object_cache_bytes: float = 64.0 * MIB
    #: page/reverse-proxy cache for *dynamic* responses: a hit skips
    #: the backend entirely.  0 disables — the Univ-3 legacy stack
    #: "was not caching responses appropriately" (§4.2)
    response_cache_bytes: float = 0.0
    #: CPU seconds to parse + route one request (before content work)
    request_parse_cpu_s: float = 0.001
    #: CPU seconds to build a HEAD (base-page) response
    head_cpu_s: float = 0.0015
    #: CPU seconds per 100 KB of static payload handed to the NIC
    static_send_cpu_s_per_100kb: float = 0.0002
    db: DatabaseSpec = field(default_factory=DatabaseSpec)
    backend: BackendSpec = field(default_factory=BackendSpec)
    #: software-artifact knob (the paper's Univ-2 signature): when more
    #: than this many connections arrive within one second, the box
    #: enters a sticky thrash state in which every response pays a
    #: uniform ``accept_thrash_s`` completion stall (buffer exhaustion →
    #: loss recovery on all connections).  None disables.  The Univ-2
    #: operators suspected "limits on the number of server threads" in
    #: a config untouched "in several years" (§4.2); the mechanism makes
    #: *every* stage stop at the same crowd size.
    accept_thrash_threshold: Optional[int] = None
    accept_thrash_s: float = 0.4

    def validate(self) -> None:
        """Sanity-check the knob values."""
        if self.cpu_cores < 1:
            raise ValueError("cpu_cores must be >= 1")
        if self.cpu_speed <= 0:
            raise ValueError("cpu_speed must be positive")
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if self.ram_bytes <= 0 or self.swap_bytes < 0:
            raise ValueError("memory sizes must be positive")
        if self.baseline_memory_bytes >= self.ram_bytes + self.swap_bytes:
            raise ValueError("baseline memory exceeds RAM + swap")
        if self.disk_bandwidth_bps <= 0:
            raise ValueError("disk bandwidth must be positive")
        if self.accept_thrash_threshold is not None and self.accept_thrash_threshold < 1:
            raise ValueError("accept_thrash_threshold must be >= 1 or None")


class ServerResources:
    """Simulated resources for one :class:`ServerSpec`."""

    def __init__(self, sim: Simulator, spec: ServerSpec) -> None:
        spec.validate()
        self.sim = sim
        self.spec = spec
        self.cpu = Resource(sim, spec.cpu_cores, name=f"{spec.name}.cpu")
        self.disk = Resource(sim, 1, name=f"{spec.name}.disk")
        self.workers = Resource(sim, spec.max_workers, name=f"{spec.name}.workers")
        self.memory = Container(
            sim,
            capacity=spec.ram_bytes + spec.swap_bytes,
            init=spec.baseline_memory_bytes,
            name=f"{spec.name}.memory",
        )

    # -- memory/swap ------------------------------------------------------------

    def swap_factor(self) -> float:
        """Service-time multiplier from memory pressure.

        1.0 while resident memory fits in RAM; grows linearly with the
        overflow fraction once the box starts swapping.
        """
        over = self.memory.level - self.spec.ram_bytes
        if over <= 0:
            return 1.0
        return 1.0 + self.spec.swap_slowdown * (over / self.spec.ram_bytes)

    def allocate_memory(self, amount: float) -> bool:
        """Claim memory; False when even swap is exhausted."""
        if self.memory.level + amount > self.memory.capacity:
            return False
        self.memory.put(amount)
        return True

    def allocate_memory_bulk(self, amount: float) -> float:
        """Claim up to *amount* memory; returns the amount claimed.

        Cohort mode's weighted allocation: a macro-request claims its
        whole crowd's memory so swap pressure (and the FastCGI cliff)
        is driven by the *real* weighted footprint.  Near exhaustion
        the claim clamps to what is left rather than failing outright
        — the partial claim already saturates :meth:`swap_factor`,
        which is the observable the degradation verdict rides on.
        """
        claim = min(amount, self.memory.capacity - self.memory.level)
        if claim <= 0:
            return 0.0
        self.memory.put(claim)
        return claim

    def free_memory(self, amount: float) -> None:
        """Release a prior allocation."""
        if not self.memory.try_get(amount):
            raise RuntimeError(f"{self.spec.name}: freeing unallocated memory")

    # -- service helpers -----------------------------------------------------------

    def consume_cpu(self, seconds: float, weight: int = 1, meter=None) -> Generator:
        """Process body: hold one core for (scaled) *seconds*.

        ``weight``/``meter`` are cohort mode's occupancy ledger, see
        :meth:`~repro.sim.resources.Resource.account`.
        """
        if seconds <= 0:
            return
        grant = yield from self.cpu.acquire(meter)
        try:
            duration = seconds / self.spec.cpu_speed * self.swap_factor()
            yield duration
        finally:
            self.cpu.release(grant)
        self.cpu.account(duration, weight, meter)

    def read_disk(self, size_bytes: float, weight: int = 1, meter=None) -> Generator:
        """Process body: seek + stream *size_bytes* off the disk."""
        grant = yield from self.disk.acquire(meter)
        try:
            duration = (
                self.spec.disk_seek_s + size_bytes / self.spec.disk_bandwidth_bps
            ) * self.swap_factor()
            yield duration
        finally:
            self.disk.release(grant)
        self.disk.account(duration, weight, meter)

    def write_disk(self, size_bytes: float, weight: int = 1, meter=None) -> Generator:
        """Process body: journal *size_bytes* onto the disk.

        Same single head, same seek + stream cost as a read — writes
        and reads contend for the one spindle (§3.3 serialization).
        """
        yield from self.read_disk(size_bytes, weight=weight, meter=meter)

    def __repr__(self) -> str:
        return f"ServerResources({self.spec.name!r})"
