"""Cohort aggregation: O(cohorts) crowd epochs for large crowds.

Exact mode simulates every crowd member's TCP handshake, server
pipeline pass and response transfer — O(crowd) simulated processes per
epoch.  Cohort mode exploits that crowd members are *statistically
homogeneous*: clients sharing an RTT bucket, access bandwidth, shared
bottleneck group and assigned object draw their epoch samples from the
same distribution, so one **representative** request carrying the whole
cohort's weight can stand in for all of them:

- the representative's macro-request runs the *real* server pipeline
  once with weight-1 resource claims, while the other ``weight − 1``
  members' demand is posted into the busy statistics
  (:meth:`repro.sim.resources.Resource.account`) and recorded on a
  :class:`CohortMeter` — the *occupancy ledger*;
- the fluid network carries one macro-flow of weight N
  (:mod:`repro.net.link`'s weighted max-min allocator), so link
  contention is exact;
- per-member reports are **synthesized** from the representative's
  measured elapsed time plus a positional queueing term derived from
  the ledger: ``Q = max_r(D_r − w_r)`` is the bottleneck resource's
  drain time beyond the member's own service, and a member at uniform
  draw ``f`` waits ``min(1, f / ramp) × Q``, where the per-epoch
  ``ramp`` (:func:`epoch_ramp_fraction`) interpolates between uniform
  FIFO positions (short-burst epochs) and a processor-sharing plateau
  (transfer-dominated epochs whose passes interleave) — plus a
  per-member RTT resample from the member's own latency stream.

Sample synthesis draws only from the dedicated ``"cohort"`` RNG stream
and each member's own latency stream, so the ``"faults"``,
``"coordinator"`` and provisioning streams are untouched — exact-mode
runs of the same spec stay byte-identical to the pre-cohort seed.

The coordinator runs one epoch skeleton for both crowd modes: exact
mode is the degenerate grouping — every client a singleton
:class:`Cohort` that is its own representative, weight 1, with no
meter, reporting over the control channel — while cohort mode groups
with :func:`group_cohorts` and synthesizes every member's report.

When exact mode is still required: synthetic-service worlds (no
server pipeline to meter) silently fall back, and studies that care
about *individual* client microbehaviour (per-client fault forensics,
access-log order) should pin ``crowd_mode="exact"``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.records import ClientReport
from repro.server.http import Status, split_cache_bust

#: static-RTT bucket resolution: quarter-octave buckets keep the
#: representative's base time within a few percent of every member's
RTT_BUCKET_PER_OCTAVE = 4.0

#: floor of the positional-draw ramp: in a fully transfer-dominated
#: epoch at most ~three quarters of the crowd sits at the saturation
#: plateau — calibrated against exact-mode member distributions
#: (univ1 LargeObject: p10/D ≈ 0.35, p50/D ≈ 0.8).
RAMP_FRACTION = 0.25


def epoch_ramp_fraction(cohorts: List["Cohort"], epoch_drain: Dict[object, float]) -> float:
    """Positional-draw shape for this epoch: uniform FIFO vs plateau.

    A synchronized crowd's queueing distribution depends on how long
    each member *occupies* the pipeline relative to the bottleneck's
    drain time ``D``:

    - short-burst epochs (residence ≲ D — e.g. a static Base object):
      classic FIFO, a member at rank ``f`` waits ``f × Q`` — positions
      are **uniform** (ramp = 1);
    - transfer-dominated epochs (residence ≫ D — e.g. LargeObject,
      where each request holds a worker through a long response
      transfer): members' bottleneck passes interleave throughout
      their residence, so nearly everyone emerges together at the full
      drain — a **plateau** with only an early ramp
      (ramp → :data:`RAMP_FRACTION`).

    ``residence`` is read from the meters as the largest mean
    per-member service across resources (the worker-style resource
    spans the whole pipeline, so it dominates); ``D`` is the
    queue-relevant drain ``max_r(drain_r − mean_service_r)`` — the
    epoch-mean twin of the per-cohort ``Q`` — so a high-capacity
    worker pool whose members *hold* it longer than it takes to drain
    never masquerades as the bottleneck; ``stretch = residence / D``
    interpolates linearly between the two regimes.
    """
    totals: Dict[object, float] = {}
    total_weight = 0
    for cohort in cohorts:
        meter = cohort.meter
        if meter is None or not meter.demands:
            continue
        total_weight += cohort.weight
        for resource, (unit_seconds, _per_member) in meter.demands.items():
            totals[resource] = totals.get(resource, 0.0) + unit_seconds
    if not total_weight or not totals:
        return 1.0
    mean_service = {
        resource: unit_seconds / total_weight
        for resource, unit_seconds in totals.items()
    }
    residence = max(mean_service.values())
    drain = max(
        (
            epoch_drain.get(resource, 0.0) - service
            for resource, service in mean_service.items()
        ),
        default=0.0,
    )
    if drain <= 0.0:
        return 1.0
    stretch = residence / drain
    return min(1.0, max(RAMP_FRACTION, 1.0 - 0.75 * (stretch - 1.0)))


def cohort_key(spec, path: str) -> Tuple:
    """Homogeneity key for one client + assigned object.

    Clients collapse into a cohort only when they share a quarter-octave
    static-RTT bucket, access bandwidth, shared mid-path bottleneck
    group, and the *underlying* assigned object (cache-busted variants
    of the same object group together — each bust suffix misses the
    cache identically).
    """
    bucket = int(round(RTT_BUCKET_PER_OCTAVE * math.log2(spec.rtt_to_target)))
    base, busted = split_cache_bust(path)
    return (bucket, spec.access_bps, spec.bottleneck_group, base, busted)


class CohortMeter:
    """The occupancy ledger one representative macro-request fills in.

    Server resources post each metered hop's per-member service time
    and weighted unit-seconds here (:meth:`demand`); the client records
    one outcome per parallel connection slot (:meth:`record_outcome`);
    the representative's own queueing waits behind *other* cohorts'
    representatives are measured (:meth:`waited`) so synthesis can
    subtract them before adding the positional term.
    """

    __slots__ = ("weight", "pipe", "demands", "waited_s", "refused_weight", "outcomes")

    def __init__(self, weight: int, pipe=None) -> None:
        self.weight = weight
        #: dedicated macro-flow access link (replaces the rep's own
        #: access link so the aggregate moves N members' bytes)
        self.pipe = pipe
        #: resource → [weighted unit-seconds, per-member service seconds]
        self.demands: Dict[object, List[float]] = {}
        self.waited_s = 0.0
        self.refused_weight = 0
        #: one per parallel-connection slot: (status, numbytes, elapsed, rtt)
        self.outcomes: List[Tuple[Status, float, float, float]] = []

    def demand(self, resource, per_member_s: float, weight: int) -> None:
        """Record a metered hop: *weight* members each needing
        *per_member_s* of service at *resource*."""
        entry = self.demands.get(resource)
        if entry is None:
            entry = self.demands[resource] = [0.0, 0.0]
        entry[0] += weight * per_member_s
        entry[1] += per_member_s

    def waited(self, seconds: float) -> None:
        """Record the representative's own time queued at a metered
        resource (behind other cohorts), to be subtracted at synthesis."""
        self.waited_s += seconds

    def record_outcome(
        self, status: Status, numbytes: float, elapsed_s: float, rtt_s: float
    ) -> None:
        """Record one macro-request slot's terminal outcome."""
        self.outcomes.append((status, numbytes, elapsed_s, rtt_s))

    def positional_queue_s(self, epoch_drain: Dict[object, float]) -> float:
        """``Q``: the last member's extra wait at the bottleneck hop.

        *epoch_drain* maps each resource to the whole epoch's drain
        time ``D_r = Σ_cohorts unit_seconds_r / capacity_r`` — members
        queue behind the *entire* crowd's demand, not just their own
        cohort's.  A member's own service at ``r`` is ``w_r`` (this
        meter's per-member accumulation); the bottleneck's
        ``max(0, D_r − w_r)`` dominates (tandem hops pipeline, so the
        max — not the sum — is the member-position spread)."""
        queue = 0.0
        for resource, (_unit_seconds, per_member) in self.demands.items():
            drain = epoch_drain.get(resource, 0.0)
            queue = max(queue, max(0.0, drain - per_member))
        return queue


@dataclass
class Cohort:
    """One homogeneous group inside an epoch's crowd."""

    key: Tuple
    members: List = field(default_factory=list)
    #: client_id → assigned object path (members keep their own paths
    #: for base-time normalization; the macro-request uses the rep's)
    paths: Dict[str, str] = field(default_factory=dict)
    rep: Optional[object] = None
    meter: Optional[CohortMeter] = None

    @property
    def weight(self) -> int:
        return len(self.members)


def choose_rep(members: List) -> object:
    """Median-static-RTT member: base-synthesis error stays small on
    both tails of the bucket."""
    ordered = sorted(
        members, key=lambda c: (c.node.spec.rtt_to_target, c.client_id)
    )
    return ordered[len(ordered) // 2]


def group_cohorts(participants: List, live: List, stage) -> List[Cohort]:
    """Partition *participants* into homogeneous cohorts.

    Object assignment is positional in *live* (exactly as exact mode's
    per-client fan-out), and cohort order follows first appearance in
    *participants*, so grouping is deterministic for a given draw.
    """
    index_of = {c.client_id: i for i, c in enumerate(live)}
    cohorts: Dict[Tuple, Cohort] = {}
    order: List[Tuple] = []
    for client in participants:
        path = stage.object_for(index_of[client.client_id])
        key = cohort_key(client.node.spec, path)
        cohort = cohorts.get(key)
        if cohort is None:
            cohort = cohorts[key] = Cohort(key=key)
            order.append(key)
        cohort.members.append(client)
        cohort.paths[client.client_id] = path
    result = []
    for key in order:
        cohort = cohorts[key]
        cohort.rep = choose_rep(cohort.members)
        result.append(cohort)
    return result


def epoch_drain_s(cohorts: List[Cohort]) -> Dict[object, float]:
    """Per-resource drain time of the *whole* epoch's metered demand:
    ``D_r = Σ_cohorts unit_seconds_r / capacity_r``."""
    totals: Dict[object, float] = {}
    for cohort in cohorts:
        meter = cohort.meter
        if meter is None:
            continue
        for resource, (unit_seconds, _per_member) in meter.demands.items():
            totals[resource] = totals.get(resource, 0.0) + unit_seconds
    return {
        resource: unit_seconds / (getattr(resource, "capacity", 1) or 1)
        for resource, unit_seconds in totals.items()
    }


def synthesize_cohort_reports(
    cohort: Cohort,
    config,
    rng,
    loss_prob: float,
    fault_gate,
    arrival_time: float,
    epoch_drain: Dict[object, float],
    connections: int = 1,
    ramp: float = 1.0,
) -> List[ClientReport]:
    """Expand one cohort's metered outcome into per-member reports.

    Every member — the representative included — gets, per parallel
    slot: a fresh RTT from its *own* latency stream, a uniform
    positional draw ``f`` against the ledger's queue term, per-member
    fault dispositions windowed at the epoch's arrival instant, and an
    independent control-channel loss draw.  Members whose synthesized
    elapsed reaches the kill timer are censored exactly like exact
    mode's killed requests.
    """
    meter = cohort.meter
    if meter is None or not meter.outcomes:
        # the command datagram was lost, or the representative never
        # fired: the whole cohort is silent this epoch (matching the
        # correlated loss of one multicast command in spirit; the
        # control channel drops per-cohort in this mode)
        return []
    n_slots = len(meter.outcomes)
    queue_s = meter.positional_queue_s(epoch_drain)
    waited_share = meter.waited_s / n_slots
    refuse_p = (
        meter.refused_weight / (cohort.weight * n_slots)
        if meter.refused_weight
        else 0.0
    )
    timeout_s = config.request_timeout_s
    reports: List[ClientReport] = []
    for status, numbytes, rep_elapsed, rep_rtt in meter.outcomes:
        for member in cohort.members:
            if fault_gate is not None and fault_gate.client_down(
                member.client_id, at=arrival_time
            ):
                continue
            is_rep = member is cohort.rep
            if is_rep:
                m_rtt = rep_rtt
            else:
                m_rtt = member.node.latency_to_target.sample_rtt()
            stall_extra = 0.0
            disposed = False
            if fault_gate is not None:
                disposition = fault_gate.request_disposition(
                    member.client_id, m_rtt, at=arrival_time
                )
                if disposition is not None:
                    kind, extra = disposition
                    if kind == "blackhole":
                        m_status, m_bytes, elapsed = (
                            Status.CLIENT_TIMEOUT,
                            0.0,
                            timeout_s,
                        )
                        disposed = True
                    elif kind == "reset":
                        m_status, m_bytes, elapsed = Status.RESET, 0.0, m_rtt
                        disposed = True
                    else:
                        stall_extra = extra
            if not disposed:
                if refuse_p and rng.random() < refuse_p:
                    # an overloaded listen queue turned this member
                    # away: a fast 503 — header only, ~handshake+RTT
                    m_status, m_bytes = Status.SERVICE_UNAVAILABLE, 0.0
                    elapsed = 2.5 * m_rtt + stall_extra
                else:
                    position = min(1.0, rng.random() / ramp)
                    elapsed = (
                        rep_elapsed
                        - waited_share
                        + position * queue_s
                        + 2.0 * connections * (m_rtt - rep_rtt)
                        + stall_extra
                    )
                    elapsed = max(elapsed, 2.5 * m_rtt)
                    m_status, m_bytes = status, numbytes
                if elapsed >= timeout_s:
                    m_status, m_bytes, elapsed = (
                        Status.CLIENT_TIMEOUT,
                        0.0,
                        timeout_s,
                    )
            base = member.base_times.get(
                cohort.paths.get(member.client_id, ""), 0.0
            )
            if fault_gate is not None and fault_gate.report_lost(
                member.client_id, at=arrival_time + elapsed
            ):
                continue
            if loss_prob and rng.random() < loss_prob:
                continue
            reports.append(
                ClientReport(
                    client_id=member.client_id,
                    status=m_status,
                    numbytes=m_bytes,
                    response_time_s=elapsed,
                    normalized_s=elapsed - base,
                )
            )
    return reports
