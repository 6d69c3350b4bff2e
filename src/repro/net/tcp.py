"""TCP transfer-time model.

The paper's request timing hinges on two TCP behaviours:

1. the HTTP request reaches the server roughly when the 3-way
   handshake completes (one RTT after the SYN leaves the client) —
   this is why the coordinator fires the command ``1.5 * T_target``
   before the intended arrival instant;
2. short responses never leave slow start, so the Large Object stage
   uses objects >= 100 KB "to allow TCP to exit slow start and fully
   utilize the available network bandwidth" (§2.2.2).

We model a response download as: a slow-start phase of
latency-dominated rounds (the congestion window doubles each RTT from
``init_cwnd_segments``), followed by a bandwidth-dominated bulk phase
in which the remaining bytes move through the fluid
:class:`~repro.net.link.Network` at the flow's max-min fair rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Generator, Sequence

from repro.net.link import Link, Network
from repro.sim.kernel import Simulator


@dataclass(frozen=True)
class SlowStartPlan:
    """Breakdown of a response download computed by :class:`TcpModel`."""

    rounds: int
    bytes_in_slow_start: float
    bulk_bytes: float


class TcpModel:
    """Analytic slow start + fluid bulk transfer.

    Parameters
    ----------
    mss_bytes:
        maximum segment size (default 1460, Ethernet MTU minus headers).
    init_cwnd_segments:
        initial congestion window (2 segments, per RFC 2581 — the
        paper's 2007-era servers).
    max_slow_start_rounds:
        safety cap on modelled rounds; with the default 16 the model
        covers windows up to ~95 MB, far beyond any paper object.
    """

    def __init__(
        self,
        mss_bytes: int = 1460,
        init_cwnd_segments: int = 2,
        max_slow_start_rounds: int = 16,
    ) -> None:
        if mss_bytes <= 0 or init_cwnd_segments <= 0:
            raise ValueError("mss and initial cwnd must be positive")
        self.mss_bytes = mss_bytes
        self.init_cwnd_segments = init_cwnd_segments
        self.max_slow_start_rounds = max_slow_start_rounds
        #: size_bytes -> the latency floor's RTT factor (a pure
        #: function of the size and the constants above)
        self._floor_factors: Dict[float, float] = {}

    # -- analytics -------------------------------------------------------------

    def plan(self, size_bytes: float, rtt: float, path_rate_bps: float) -> SlowStartPlan:
        """Split a download into slow-start rounds and bulk bytes.

        Slow start ends when either the whole object has been sent or
        the window reaches the path's bandwidth-delay product (the pipe
        is full; adding rounds would double-count the fluid phase).
        """
        bdp_bytes = max(path_rate_bps * rtt, self.mss_bytes)
        cwnd = self.init_cwnd_segments * self.mss_bytes
        sent = 0.0
        rounds = 0
        while (
            sent < size_bytes
            and cwnd < bdp_bytes
            and rounds < self.max_slow_start_rounds
        ):
            sent += cwnd
            cwnd *= 2
            rounds += 1
        sent = min(sent, size_bytes)
        return SlowStartPlan(
            rounds=rounds,
            bytes_in_slow_start=sent,
            bulk_bytes=size_bytes - sent,
        )

    def handshake_delay(self, rtt: float) -> float:
        """Time from SYN departure until the request reaches the server."""
        return rtt  # SYN out + SYN/ACK back + request rides the final ACK

    def estimate_transfer_time(
        self, size_bytes: float, rtt: float, path_rate_bps: float
    ) -> float:
        """Closed-form download estimate at a *fixed* path rate.

        Mirrors :meth:`download`: the later of the latency floor and
        the bandwidth-bound fluid time.
        """
        if path_rate_bps <= 0:
            raise ValueError("path rate must be positive")
        return max(
            self.latency_floor_s(size_bytes, rtt),
            size_bytes / path_rate_bps,
        )

    # -- simulation ------------------------------------------------------------

    def latency_floor_s(self, size_bytes: float, rtt: float) -> float:
        """Time to deliver *size_bytes* with unlimited bandwidth.

        Slow start needs ``r`` congestion-window rounds to cover the
        object; the last window only pays its one-way propagation, so
        the floor is ``(r − 0.5) · RTT`` (min one half RTT).  The
        factor is computed once per size and kept.
        """
        factor = self._floor_factors.get(size_bytes)
        if factor is None:
            if size_bytes <= 0:
                return 0.0
            cwnd = self.init_cwnd_segments * self.mss_bytes
            sent = 0.0
            rounds = 0
            while sent < size_bytes and rounds < self.max_slow_start_rounds:
                sent += cwnd
                cwnd *= 2
                rounds += 1
            factor = self._floor_factors[size_bytes] = max(rounds - 0.5, 0.5)
        return factor * rtt

    def download(
        self,
        sim: Simulator,
        network: Network,
        links: Sequence[Link],
        size_bytes: float,
        rtt: float,
    ) -> Generator:
        """Process body: deliver *size_bytes* over *links* to a client.

        Completion time is the *later* of two bounds: the slow-start
        latency floor (how long TCP's window growth takes even on an
        empty path) and the fluid transfer of all bytes at the flow's
        max-min fair share (how long the contended path takes).  An
        uncontended wide-area download is latency-bound; a crowded
        access link turns it bandwidth-bound — which is exactly the
        transition the Large Object stage detects.
        """
        return self.download_weighted(sim, network, links, size_bytes, rtt, 1)

    def download_weighted(
        self,
        sim: Simulator,
        network: Network,
        links: Sequence[Link],
        size_bytes: float,
        rtt: float,
        weight: int,
    ) -> Generator:
        """Cohort macro-download: *weight* members' bytes as one flow.

        Starts a single fluid transfer of ``weight × size_bytes``
        carrying max-min weight *weight*, so the macro-flow's fair
        share is exactly the sum of the shares *weight* separate
        member flows would receive — and its completion time equals
        each member's completion time under that contention (all
        members of a cohort launch the same instant and move the same
        bytes).  The slow-start latency floor stays per-member: window
        growth happens in every member's own connection.  A *weight*
        of 1 is a plain :meth:`download`.
        """
        if size_bytes <= 0:
            return 0.0
        floor_s = self.latency_floor_s(size_bytes, rtt)
        if weight > 1:
            transfer = network.start_transfer(
                links, size_bytes * weight, weight=weight
            )
        else:
            # the seed's two-argument call: the determinism-parity suite
            # swaps in the frozen net/_seed_reference.Network, which
            # predates weighted flows and takes no weight
            transfer = network.start_transfer(links, size_bytes)
        # wait for the later of the floor and the transfer.  The
        # closing zero-delay hop is pushed while the later of the two
        # fires, the slot a condition event over both would take, so
        # same-instant resumes keep their order (nothing else
        # subscribes to transfer.done).  A transfer aborted during the
        # floor raises its TransferAborted when the floor ends
        try:
            yield floor_s
            done = transfer.done
            if not done.processed:
                yield done
            elif not done.ok:
                raise done.exception
            yield 0.0
        finally:
            if transfer.active:
                network.abort(transfer)
        return size_bytes

    def minimum_large_object_bytes(self, rtt: float, path_rate_bps: float) -> float:
        """Smallest object that exits slow start on this path.

        Validates the paper's choice of the 100 KB bound: anything
        smaller spends its whole life latency-bound and cannot reveal
        an access-bandwidth constraint.
        """
        bdp_bytes = max(path_rate_bps * rtt, self.mss_bytes)
        cwnd = self.init_cwnd_segments * self.mss_bytes
        sent = 0.0
        while cwnd < bdp_bytes:
            sent += cwnd
            cwnd *= 2
        return sent


def seconds_per_byte(capacity_bps: float) -> float:
    """Convenience inverse-rate helper for back-of-envelope checks."""
    if capacity_bps <= 0:
        raise ValueError("capacity must be positive")
    return 1.0 / capacity_bps


def mbps(value: float) -> float:
    """Megabits/s → bytes/s (the library's link unit)."""
    return value * 1e6 / 8.0


def kbps(value: float) -> float:
    """Kilobits/s → bytes/s."""
    return value * 1e3 / 8.0


def kib(value: float) -> float:
    """KiB → bytes."""
    return value * 1024.0


def mib(value: float) -> float:
    """MiB → bytes."""
    return value * 1024.0 * 1024.0
