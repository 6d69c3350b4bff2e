"""The MFC client agent (paper Figure 2(b)).

Client-side behaviour, verbatim from the paper:

1. register with the coordinator; answer liveness/delay probes
   (PlanetLab nodes are flaky — unresponsive nodes simply stay silent);
2. measure ``T(i, target)`` and the base response time of the objects
   it will request, reporting both to the coordinator;
3. on a command: issue the HTTP request(s) immediately (the
   coordinator timed the command so the request arrives at the
   synchronized instant); kill any request outstanding at 10 s and
   record ``code=ERR, response time = 10 s``;
4. report ``(client ID, HTTP code, numbytes, response time)`` plus the
   normalized response time back to the coordinator over the lossy
   control channel.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Generator, Optional, Tuple

from repro.core.config import BASE_MEASURE_GAP_S, REQUEST_TIMEOUT_S
from repro.core.records import ClientReport
from repro.net.control import ControlChannel
from repro.net.topology import ClientNode
from repro.server.http import HTTPRequest, Method, Status
from repro.sim.events import deadline
from repro.sim.kernel import Simulator


@dataclass(frozen=True)
class RequestCommand:
    """Coordinator → client epoch command."""

    epoch_key: Tuple[str, int]      # (stage name, epoch sequence no.)
    path: str
    method: Method
    n_parallel: int = 1             # MFC-mr parallel connections
    body_bytes: float = 0.0         # POST body (the Upload stage)
    connections: int = 1            # sequential no-keepalive churn
    #: cohort mode (runtime-only — commands are never serialized): the
    #: representative fires macro-requests carrying the whole cohort's
    #: weight and records outcomes on the meter instead of reporting
    #: over the control channel (the coordinator synthesizes every
    #: member's report, the representative's included)
    weight: int = 1
    meter: object = None            # CohortMeter | None


class MFCClient:
    """One wide-area measurement client."""

    def __init__(
        self,
        sim: Simulator,
        node: ClientNode,
        service,
        control: ControlChannel,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.sim = sim
        self.node = node
        self.service = service
        self.control = control
        self.client_id = node.client_id
        self._rng = rng if rng is not None else random.Random(0)
        #: base response time per object path (step 2 above)
        self.base_times: Dict[str, float] = {}
        #: measured RTT to the target (reported to the coordinator)
        self.measured_target_rtt: Optional[float] = None
        self.requests_issued = 0
        #: where to deposit reports (wired by the coordinator)
        self.report_sink: Optional[Callable] = None
        #: fault-injection gate (:class:`repro.faults.inject.FaultInjector`);
        #: None — every fault-free world — short-circuits all checks,
        #: keeping those runs byte-identical
        self.fault_gate = None

    # -- liveness -------------------------------------------------------------

    def probe(self, reply: Callable[[str], None]) -> None:
        """Liveness probe: flaky nodes stay silent; others answer
        after one control-channel round trip."""
        if self.fault_gate is not None and self.fault_gate.client_down(self.client_id):
            return
        if self._rng.random() < self.node.spec.unresponsive_prob:
            return
        self.control.ping(self.node.latency_to_coord, lambda _rtt: reply(self.client_id))

    # -- delay computation -------------------------------------------------------

    def measure_target_rtt(self) -> Generator:
        """Process body: ping the target, record and return the RTT."""
        rtt = self.node.latency_to_target.sample_rtt()
        yield rtt
        self.measured_target_rtt = rtt
        return rtt

    def measure_base(
        self,
        paths,
        method: Method,
        body_bytes: float = 0.0,
        connections: int = 1,
    ) -> Generator:
        """Process body: sequentially measure base response times.

        The measurement uses the stage's full request recipe (body,
        churn connections) so the normalization subtracts like from
        like.
        """
        for path in paths:
            status, _nbytes, elapsed = yield from self._issue_once(
                path, method, body_bytes=body_bytes, connections=connections
            )
            # a timed-out base measurement still yields a (pessimal)
            # base value; the paper's normalization needs *something*
            self.base_times[path] = elapsed
            yield BASE_MEASURE_GAP_S
        return dict(self.base_times)

    def probe_unloaded(
        self,
        path: str,
        method: Method,
        body_bytes: float = 0.0,
        connections: int = 1,
    ) -> Generator:
        """Process body: one unloaded request for the hardened
        coordinator's safety-abort guard (paper's non-intrusiveness
        rule).  Returns ``(status, normalized_s)`` against the base
        time measured in the delay-computation phase."""
        status, _nbytes, elapsed = yield from self._issue_once(
            path, method, body_bytes=body_bytes, connections=connections
        )
        base = self.base_times.get(path, 0.0)
        return status, elapsed - base

    # -- epoch execution --------------------------------------------------------

    def execute_command(self, command: RequestCommand) -> None:
        """Datagram handler: fire the commanded request(s) now.

        The MFC-mr parallel connections launch as one batch at the
        command instant: their handshake RTTs are presampled here (in
        spawn order, so the latency stream is drawn exactly as when
        each connection sampled lazily) and the request processes are
        spawned back to back.  Response transfers that later share an
        allocation instant are folded into a single rate pass by the
        fluid network's end-of-instant transaction
        (:meth:`repro.net.link.Network.start_transfers` is the same
        transaction for direct batch launches).
        """
        if command.meter is None:
            if self.fault_gate is not None and self.fault_gate.client_down(
                self.client_id
            ):
                # a dropped-out client never sees the command datagram
                return
        # cohort mode: the macro-request always runs — member dropout
        # (the representative's included) is drawn per member at report
        # synthesis so one unlucky representative draw can't silence a
        # whole cohort
        spawn = self.sim.process
        flow = self._commanded_request
        sample_rtt = self.node.latency_to_target.sample_rtt
        for _ in range(command.n_parallel):
            spawn(flow(command, sample_rtt()))

    def _commanded_request(
        self, command: RequestCommand, rtt: Optional[float] = None
    ) -> Generator:
        status, nbytes, elapsed = yield from self._issue_once(
            command.path,
            command.method,
            rtt,
            body_bytes=command.body_bytes,
            connections=command.connections,
            weight=command.weight,
            meter=command.meter,
        )
        if command.meter is not None:
            # cohort mode: no control-channel report — the coordinator
            # synthesizes all member reports (per-member loss draws
            # included) from the recorded slot outcome
            command.meter.record_outcome(status, nbytes, elapsed, rtt)
            return
        base = self.base_times.get(command.path, 0.0)
        report = ClientReport(
            client_id=self.client_id,
            status=status,
            numbytes=nbytes,
            response_time_s=elapsed,
            normalized_s=elapsed - base,
        )
        if self.report_sink is not None:
            if self.fault_gate is not None and self.fault_gate.report_lost(
                self.client_id
            ):
                return
            self.control.send(
                self.node.latency_to_coord,
                self.report_sink,
                (command.epoch_key, report),
            )

    # -- the request primitive ------------------------------------------------------

    def _issue_once(
        self,
        path: str,
        method: Method,
        rtt: Optional[float] = None,
        body_bytes: float = 0.0,
        connections: int = 1,
        weight: int = 1,
        meter=None,
    ) -> Generator:
        """Issue one commanded request with the 10 s kill timer.

        Returns ``(status, numbytes, elapsed_s)``.  Elapsed time runs
        from command receipt (the paper's client starts its TCP
        handshake immediately on command).  Commanded crowd launches
        pass a presampled *rtt*; sequential callers (the base
        measurements) leave it None and sample here.  *connections* > 1
        (the ConnChurn stage) chains that many fresh handshake+request
        cycles — no keepalive — under the one kill timer, reporting
        total bytes and the first failing status.
        """
        issued_at = self.sim.now
        self.requests_issued += 1
        if rtt is None:
            rtt = self.node.latency_to_target.sample_rtt()
        if self.fault_gate is not None and meter is None:
            # cohort mode: the macro-request runs clean — per-member
            # dispositions are drawn at report synthesis instead, so a
            # single representative draw can't blackhole a whole cohort
            disposition = self.fault_gate.request_disposition(self.client_id, rtt)
            if disposition is not None:
                kind, extra_delay = disposition
                if kind == "blackhole":
                    # the packets vanish; only the kill timer resolves it
                    yield REQUEST_TIMEOUT_S
                    return Status.CLIENT_TIMEOUT, 0.0, REQUEST_TIMEOUT_S
                if kind == "reset":
                    # RST after one round trip: fast, explicit failure
                    yield rtt
                    return Status.RESET, 0.0, self.sim.now - issued_at
                # "stall": the handshake is held before it starts
                yield extra_delay
        request = HTTPRequest(
            method=method,
            path=path,
            client_id=self.client_id,
            is_mfc=True,
            body_bytes=body_bytes,
        )

        def request_flow():
            status = None
            # accumulated from the responses (not seeded with 0.0: a
            # single-connection transfer must report the response's
            # byte count verbatim, int-ness included — it lands in
            # ClientReport.numbytes, which determinism fingerprints
            # compare byte-for-byte through JSON)
            nbytes = None
            for index in range(connections):
                if index == 0:
                    conn_rtt, conn_request = rtt, request
                else:
                    # further no-keepalive connections: fresh handshake,
                    # fresh request, freshly sampled RTT
                    self.requests_issued += 1
                    conn_rtt = self.node.latency_to_target.sample_rtt()
                    conn_request = HTTPRequest(
                        method=method,
                        path=path,
                        client_id=self.client_id,
                        is_mfc=True,
                        body_bytes=body_bytes,
                    )
                # SYN + SYN-ACK + request-on-ACK: first byte reaches the
                # server 1.5 RTT after the client starts the handshake
                yield 1.5 * conn_rtt
                if meter is not None or weight > 1:
                    # any cohort macro-request — weight-1 singletons
                    # included — must reach the server with its meter,
                    # or the singleton contributes nothing to the epoch
                    # drain and gets no positional queue share back
                    response = yield self.service.submit(
                        conn_request, self.node, conn_rtt, weight=weight, meter=meter
                    )
                else:
                    response = yield self.service.submit(
                        conn_request, self.node, conn_rtt
                    )
                nbytes = (
                    response.bytes_transferred
                    if nbytes is None
                    else nbytes + response.bytes_transferred
                )
                if status is None or status is Status.OK:
                    status = response.status
            return status, nbytes

        proc = self.sim.process(request_flow())
        try:
            yield deadline(self.sim, proc, REQUEST_TIMEOUT_S)
        except Exception:
            # treat any transport failure like a timeout/ERR
            return Status.CLIENT_TIMEOUT, 0.0, REQUEST_TIMEOUT_S
        if proc.processed and proc.ok:
            status, nbytes = proc.value
            return status, nbytes, self.sim.now - issued_at
        # kill the request: record ERR at exactly the timeout value
        return Status.CLIENT_TIMEOUT, 0.0, REQUEST_TIMEOUT_S
