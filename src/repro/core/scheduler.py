"""Synchronization scheduling arithmetic (paper §2.2.4).

The coordinator wants every request's first byte to arrive at the
target at the same instant ``T``.  Working backwards along the causal
chain with the *measured* latency estimates:

- the command must reach client *i* at ``T − 1.5·T_target(i)`` (the
  client then starts its TCP handshake: SYN at +0.5 RTT, SYN-ACK back
  at +1.0 RTT, request rides the final ACK arriving at +1.5 RTT);
- the coordinator→client datagram takes ``0.5·T_coord(i)``, so it must
  leave the coordinator at ``T − 0.5·T_coord(i) − 1.5·T_target(i)``.

Actual arrivals then scatter around ``T`` only by the *jitter* between
the estimates and the live latencies — exactly the spread Figure 3
measures.  The staggered variant (§6) offsets each client's intended
arrival by ``k · stagger_interval``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence


@dataclass(frozen=True)
class DelayEstimates:
    """One client's measured control/target latencies."""

    client_id: str
    coord_rtt_s: float      # T_coord(i), measured by coordinator ping
    target_rtt_s: float     # T_target(i), measured by the client


@dataclass(frozen=True)
class DispatchPlan:
    """When to command one client for one epoch."""

    client_id: str
    dispatch_time: float    # when the coordinator sends the command
    intended_arrival: float  # the target arrival instant for its request


class SyncScheduler:
    """Computes per-client command dispatch times."""

    def __init__(self, stagger_interval_s: Optional[float] = None) -> None:
        if stagger_interval_s is not None and stagger_interval_s < 0:
            raise ValueError("stagger interval cannot be negative")
        self.stagger_interval_s = stagger_interval_s

    def command_lead_s(self, est: DelayEstimates) -> float:
        """Seconds before T the command for this client must leave."""
        return 0.5 * est.coord_rtt_s + 1.5 * est.target_rtt_s

    def earliest_feasible_T(self, now: float, estimates: Sequence[DelayEstimates]) -> float:
        """The soonest arrival instant reachable for every client."""
        if not estimates:
            raise ValueError("no clients to schedule")
        return now + max(self.command_lead_s(e) for e in estimates)

    def plan(
        self,
        now: float,
        target_time: float,
        estimates: Sequence[DelayEstimates],
    ) -> List[DispatchPlan]:
        """Dispatch plan for one epoch.

        Raises if *target_time* is infeasible for any client (its
        command would have to be sent in the past).
        """
        plans: List[DispatchPlan] = []
        for k, est in enumerate(estimates):
            arrival = target_time
            if self.stagger_interval_s is not None:
                arrival += k * self.stagger_interval_s
            dispatch = arrival - self.command_lead_s(est)
            if dispatch < now - 1e-9:
                raise ValueError(
                    f"target time {target_time:.3f} infeasible for client "
                    f"{est.client_id} (needs dispatch at {dispatch:.3f}, now {now:.3f})"
                )
            plans.append(
                DispatchPlan(
                    client_id=est.client_id,
                    dispatch_time=dispatch,
                    intended_arrival=arrival,
                )
            )
        return plans


def naive_plan(
    now: float,
    estimates: Sequence[DelayEstimates],
) -> List[DispatchPlan]:
    """Ablation baseline: command every client immediately.

    Requests then arrive at ``now + 0.5·T_coord + 1.5·T_target`` —
    spread across the fleet's full latency diversity instead of
    synchronized.  Used by ``bench_ablation_sync``.
    """
    return [
        DispatchPlan(
            client_id=e.client_id,
            dispatch_time=now,
            intended_arrival=now + 0.5 * e.coord_rtt_s + 1.5 * e.target_rtt_s,
        )
        for e in estimates
    ]
