"""Independent measurers (paper §6, "Role of Measurers").

Measurers are extra clients that do *not* join the crowd; during each
epoch they independently time a request — either the crowd's object or
a different one — giving the coordinator an outside view, e.g. "how
does a bandwidth-intensive crowd affect the response time of a
database-intensive request?" (cross-resource correlation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Optional

from repro.core.config import MFCConfig
from repro.net.topology import ClientNode
from repro.server.http import HTTPRequest, Method, Status
from repro.sim.events import deadline
from repro.sim.kernel import Simulator


@dataclass
class MeasurerSample:
    """One measurement taken during (or around) an epoch."""

    time: float
    path: str
    response_time_s: float
    status: Status


class Measurer:
    """A lone response-time prober riding alongside the crowd."""

    def __init__(
        self,
        sim: Simulator,
        node: ClientNode,
        service,
        config: MFCConfig,
        path: str,
        method: Method = Method.GET,
    ) -> None:
        self.sim = sim
        self.node = node
        self.service = service
        self.config = config
        self.path = path
        self.method = method
        self.samples: List[MeasurerSample] = []

    def measure_once(self) -> Generator:
        """Process body: one timed request; appends a sample."""
        started = self.sim.now
        rtt = self.node.latency_to_target.sample_rtt()
        request = HTTPRequest(
            method=self.method,
            path=self.path,
            client_id=f"measurer-{self.node.client_id}",
            is_mfc=True,
        )

        def flow():
            yield 1.5 * rtt
            response = yield self.service.submit(request, self.node, rtt)
            return response

        proc = self.sim.process(flow())
        yield deadline(self.sim, proc, self.config.request_timeout_s)
        if proc.processed and proc.ok:
            sample = MeasurerSample(
                time=started,
                path=self.path,
                response_time_s=self.sim.now - started,
                status=proc.value.status,
            )
        else:
            sample = MeasurerSample(
                time=started,
                path=self.path,
                response_time_s=self.config.request_timeout_s,
                status=Status.CLIENT_TIMEOUT,
            )
        self.samples.append(sample)
        return sample

    def measure_at(self, times: List[float]) -> None:
        """Schedule one measurement at each absolute simulated time."""
        for when in times:
            self.sim.call_at(when, lambda: self.sim.process(self.measure_once()))

    def baseline(self) -> Optional[float]:
        """First sample's response time (take it before the crowd)."""
        return self.samples[0].response_time_s if self.samples else None

    def series(self) -> List[tuple]:
        """``(time, response_time)`` pairs."""
        return [(s.time, s.response_time_s) for s in self.samples]
