"""Load-balanced server clusters.

The paper's QTP production system was "a specific data center which
houses 16 multiprocessor servers in a load-balanced configuration
serving the requests directed to the single server IP address we
used" — no MFC stage moved its response time by even 10 ms.  A
:class:`LoadBalancedCluster` wraps N :class:`SimWebServer` boxes behind
one dispatch policy and presents the same ``submit`` interface.
"""

from __future__ import annotations

from typing import Generator, List, Sequence

from repro.net.topology import ClientNode
from repro.server.accesslog import AccessLog, LogRecord
from repro.server.http import HTTPRequest
from repro.server.webserver import SimWebServer
from repro.sim.kernel import SimulationError, Simulator
from repro.sim.process import Process

POLICIES = ("least_connections", "round_robin")


class LoadBalancedCluster:
    """N backend boxes behind a single virtual IP."""

    def __init__(
        self,
        sim: Simulator,
        servers: Sequence[SimWebServer],
        policy: str = "least_connections",
    ) -> None:
        if not servers:
            raise SimulationError("cluster needs at least one server")
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; choose from {POLICIES}")
        self.sim = sim
        self.servers: List[SimWebServer] = list(servers)
        self.policy = policy
        self._rr_index = 0
        self.dispatched = 0

    def _pick(self) -> SimWebServer:
        if self.policy == "round_robin":
            server = self.servers[self._rr_index % len(self.servers)]
            self._rr_index += 1
            return server
        # least_connections: fewest in-flight requests; stable tie-break
        return min(self.servers, key=lambda s: (s.pending_requests, s.spec.name))

    def submit(
        self,
        request: HTTPRequest,
        client: ClientNode,
        rtt: float,
        weight: int = 1,
        meter=None,
    ) -> Process:
        """Dispatch to a backend; same contract as ``SimWebServer.submit``."""
        self.dispatched += 1
        if weight <= 1:
            return self._pick().submit(request, client, rtt, weight=weight, meter=meter)
        # cohort dispatch: a load balancer spreads a synchronized burst
        # across the boxes, so the macro-request is split into
        # near-equal weighted chunks (fewest-pending boxes take the
        # remainder) that run concurrently; the wrapper completes when
        # the slowest chunk does, which is every member's completion
        # under symmetric boxes
        n = len(self.servers)
        base, rem = divmod(weight, n)
        if self.policy == "round_robin":
            ordered = [
                self.servers[(self._rr_index + i) % n] for i in range(n)
            ]
            self._rr_index += 1
        else:
            ordered = sorted(
                self.servers, key=lambda s: (s.pending_requests, s.spec.name)
            )
        chunks = []
        for i, server in enumerate(ordered):
            chunk = base + (1 if i < rem else 0)
            if chunk > 0:
                chunks.append((server, chunk))
        return self.sim.process(self._submit_chunks(request, client, rtt, chunks, meter))

    def _submit_chunks(self, request, client, rtt, chunks, meter) -> Generator:
        procs = [
            server.submit(request, client, rtt, weight=chunk, meter=meter)
            for server, chunk in chunks
        ]
        response = None
        for proc in procs:
            response = yield proc
        return response

    @property
    def pending_requests(self) -> int:
        """Total in-flight requests across the cluster."""
        return sum(s.pending_requests for s in self.servers)

    def combined_log(self) -> AccessLog:
        """Merge per-server logs, time-ordered (the paper collected
        "server logs … from all 16 servers")."""
        records: List[LogRecord] = []
        for server in self.servers:
            records.extend(server.access_log.records)
        records.sort(key=lambda r: (r.arrival_time, r.request_id))
        return AccessLog(records)

    def __len__(self) -> int:
        return len(self.servers)
