"""Back-end database model.

The Small Query stage of the paper stresses "the back-end data
processing sub-system": queries scan rows, contend for a bounded
connection pool, and may be answered from a query cache (the lab
validation configured MySQL with a 16 MB query cache; the Univ-3
legacy stack cached nothing and degraded at 30 concurrent queries).

An optional *contention point* models the QTNP operators' observation
that "the Small Query we tested involves processing on multiple
servers … and one of the servers was a known contention point": a
serialized extra hop that each cache-missing query must cross.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.content.objects import WebObject
from repro.sim.kernel import Simulator
from repro.sim.resources import Resource


@dataclass(frozen=True)
class DatabaseSpec:
    """Knobs for the back-end database."""

    max_connections: int = 100
    #: rows scanned per second per connection (query cost = rows/rate)
    row_scan_rate: float = 2_000_000.0
    #: fixed per-query overhead (parse/plan/connect), seconds
    per_query_overhead_s: float = 0.002
    #: byte budget of the query cache; 0 disables response caching
    query_cache_bytes: float = 16.0 * 1024 * 1024
    #: serialized extra processing per cache-missing query, seconds
    #: (0 disables the contention point)
    contention_point_s: float = 0.0

    def validate(self) -> None:
        """Sanity-check the knob values."""
        if self.max_connections < 1:
            raise ValueError("max_connections must be >= 1")
        if self.row_scan_rate <= 0:
            raise ValueError("row_scan_rate must be positive")
        if self.per_query_overhead_s < 0 or self.contention_point_s < 0:
            raise ValueError("timings cannot be negative")
        if self.query_cache_bytes < 0:
            raise ValueError("query cache size cannot be negative")


class Database:
    """Connection-pooled, query-cached row-scan database."""

    def __init__(self, sim: Simulator, spec: DatabaseSpec, name: str = "db") -> None:
        spec.validate()
        from repro.server.cache import LRUCache  # local import: avoid cycle

        self.sim = sim
        self.spec = spec
        self.name = name
        self.connections = Resource(sim, spec.max_connections, name=f"{name}.conn")
        self.query_cache = LRUCache(spec.query_cache_bytes, name=f"{name}.qcache")
        self._contention: Optional[Resource] = (
            Resource(sim, 1, name=f"{name}.contention")
            if spec.contention_point_s > 0
            else None
        )
        self.queries_executed = 0

    def execute(
        self,
        query: WebObject,
        swap_factor: float = 1.0,
        weight: int = 1,
        meter=None,
    ) -> Generator:
        """Process body: run one query; returns True on a cache hit.

        *swap_factor* scales service time when the host is swapping
        (the database shares the box with the web server in the paper's
        lab setup).  ``weight``/``meter`` implement cohort mode's
        occupancy ledger: the representative query runs for real, the
        other members' identical demand is posted into the busy
        statistics and recorded for positional queue synthesis.
        """
        if not query.dynamic:
            raise ValueError(f"not a query object: {query.path}")
        self.queries_executed += weight if weight > 1 else 1
        if query.cacheable and self.query_cache.lookup(query.path):
            # cached responses skip the scan; only the cache probe costs
            yield (
                0.1 * self.spec.per_query_overhead_s * swap_factor
            )
            return True

        grant = yield from self.connections.acquire(meter)
        try:
            scan_s = query.db_rows / self.spec.row_scan_rate
            service_s = (self.spec.per_query_overhead_s + scan_s) * swap_factor
            yield service_s
        finally:
            self.connections.release(grant)
        if weight > 1:
            self.connections.account((weight - 1) * service_s)
        if meter is not None:
            meter.demand(self.connections, service_s, weight)

        if self._contention is not None:
            hop = yield from self._contention.acquire(meter)
            try:
                hop_s = self.spec.contention_point_s * swap_factor
                yield hop_s
            finally:
                self._contention.release(hop)
            if weight > 1:
                self._contention.account((weight - 1) * hop_s)
            if meter is not None:
                meter.demand(self._contention, hop_s, weight)

        if query.cacheable:
            self.query_cache.insert(query.path, query.size_bytes)
        return False

    @property
    def active_connections(self) -> int:
        """Connections currently held by running queries."""
        return self.connections.in_use
