"""Dynamic-content backends: FastCGI vs. Mongrel.

The paper's lab validation (§3.2, Figure 6) contrasts two server-side
interfaces to the same database workload:

- **FastCGI** — "forks a new process for each request.  As the number
  of requests increases, each of the forked processes independently
  inherits the memory image of the parent process leading to very high
  memory usage" (footnote 1).  Client response time blows up once the
  box starts swapping.
- **Mongrel** — a pooled, lightweight dynamic-object server: response
  time "stays within 10 ms for crowd sizes up to 50" with flat CPU and
  memory.

Both backends run the actual query through the shared
:class:`~repro.server.database.Database`; they differ only in the
process model wrapped around it — which is exactly the point the paper
makes about *software* (not hardware) inefficiency being visible at
sub-system granularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.content.objects import WebObject
from repro.server.database import Database
from repro.sim.kernel import Simulator
from repro.sim.resources import Resource

MIB = 1024.0 * 1024.0


@dataclass(frozen=True)
class BackendSpec:
    """Declarative backend choice + knobs."""

    kind: str = "mongrel"  # "mongrel" | "fastcgi"
    #: memory image inherited by each forked FastCGI process
    fastcgi_process_bytes: float = 24.0 * MIB
    #: fork + exec + teardown CPU cost per FastCGI request
    fastcgi_fork_cpu_s: float = 0.004
    #: Mongrel handler pool size
    mongrel_pool_size: int = 64
    #: per-request dispatch cost inside Mongrel
    mongrel_dispatch_cpu_s: float = 0.0008

    def validate(self) -> None:
        """Sanity-check the knob values."""
        if self.kind not in ("mongrel", "fastcgi"):
            raise ValueError(f"unknown backend kind: {self.kind!r}")
        if self.fastcgi_process_bytes <= 0:
            raise ValueError("fastcgi process image must be positive")
        if self.mongrel_pool_size < 1:
            raise ValueError("mongrel pool must hold at least one handler")


class DynamicBackend:
    """Interface: run one dynamic request through the backend."""

    name = "abstract"

    def handle(self, query: WebObject, weight: int = 1, meter=None) -> Generator:
        """Process body: produce the dynamic response for *query*.

        ``weight``/``meter`` are cohort mode's occupancy ledger, see
        :meth:`~repro.sim.resources.Resource.account`.
        """
        raise NotImplementedError


class FastCGIBackend(DynamicBackend):
    """Fork-per-request backend with inherited memory images."""

    name = "fastcgi"

    def __init__(self, sim: Simulator, spec: BackendSpec, resources, database: Database) -> None:
        self.sim = sim
        self.spec = spec
        self.resources = resources  # ServerResources (duck-typed; avoids cycle)
        self.database = database
        self.active_processes = 0
        self.peak_processes = 0
        self.forks_failed = 0

    def handle(self, query: WebObject, weight: int = 1, meter=None) -> Generator:
        image = self.spec.fastcgi_process_bytes
        if weight > 1:
            # the whole cohort forks: claim every member's process
            # image so the swap cliff (Figure 6) is driven by the real
            # weighted footprint; near exhaustion the claim clamps,
            # which already pins swap_factor at its ceiling
            claimed = self.resources.allocate_memory_bulk(weight * image)
        else:
            # one process takes its whole image or fails to fork.  A
            # one-member cohort drops its meter here, so its fork CPU
            # and database demand never reach the epoch drain: a known
            # metering gap, kept until the cohort digests are next
            # re-recorded (see the ROADMAP's cohort-compression item)
            claimed = image if self.resources.allocate_memory(image) else 0.0
            meter = None
        if claimed < image:
            # fork failure under memory exhaustion: the request still
            # gets an (expensive, thrashing) retry path
            self.forks_failed += weight
            yield from self.resources.consume_cpu(
                10 * self.spec.fastcgi_fork_cpu_s, weight=weight, meter=meter
            )
            if claimed > 0:
                self.resources.free_memory(claimed)
            return
        self.active_processes += weight
        self.peak_processes = max(self.peak_processes, self.active_processes)
        try:
            yield from self.resources.consume_cpu(
                self.spec.fastcgi_fork_cpu_s, weight=weight, meter=meter
            )
            yield from self.database.execute(
                query,
                swap_factor=self.resources.swap_factor(),
                weight=weight,
                meter=meter,
            )
        finally:
            self.active_processes -= weight
            self.resources.free_memory(claimed)


class MongrelBackend(DynamicBackend):
    """Pooled lightweight backend: constant memory, bounded handlers."""

    name = "mongrel"

    def __init__(self, sim: Simulator, spec: BackendSpec, resources, database: Database) -> None:
        self.sim = sim
        self.spec = spec
        self.resources = resources
        self.database = database
        self.pool = Resource(sim, spec.mongrel_pool_size, name="mongrel.pool")

    def handle(self, query: WebObject, weight: int = 1, meter=None) -> Generator:
        grant = yield from self.pool.acquire(meter)
        held_from = self.sim.now
        try:
            yield from self.resources.consume_cpu(
                self.spec.mongrel_dispatch_cpu_s, weight=weight, meter=meter
            )
            yield from self.database.execute(
                query,
                swap_factor=self.resources.swap_factor(),
                weight=weight,
                meter=meter,
            )
        finally:
            held = self.sim.now - held_from
            self.pool.release(grant)
        # pool occupancy: held across dispatch + query, so member
        # handlers queue positionally behind the whole hold
        self.pool.account(held, weight, meter)


def make_backend(sim: Simulator, spec: BackendSpec, resources, database: Database) -> DynamicBackend:
    """Instantiate the backend described by *spec*."""
    spec.validate()
    if spec.kind == "fastcgi":
        return FastCGIBackend(sim, spec, resources, database)
    return MongrelBackend(sim, spec, resources, database)
