"""The MFC coordinator (paper Figure 2(a)).

Orchestrates one experiment end-to-end:

1. **Registration / liveness** — probe every registered client; abort
   unless ≥ 50 answer within 1 s.
2. **Delay computation** (per stage) — measure ``T_coord(i)`` by ping;
   have each client measure ``T_target(i)`` and the base response time
   of its assigned object, *sequentially* so the measurements do not
   disturb each other.
3. **Epochs** — for each crowd size from the
   :class:`~repro.core.epochs.EpochPlanner`: pick participants at
   random, compute the synchronized dispatch plan, fire commands over
   the lossy control channel, wait out the epoch gap, collect whatever
   reports arrived, hand the aggregate to the planner.

Live-target defenses sit in one :class:`~repro.core.hardening.HardeningPolicy`
chosen by ``hardened``; the null policy is the paper's algorithm.  Each
stage calls it at four points: stage start (re-liveness), after the base
measurements (poisoned-base screening), after each epoch (accept, retry
the crowd or abort the stage) and after each accepted epoch (periodic
re-liveness).  Each epoch also asks it which reports count as samples.

One delay computation and one epoch skeleton serve both crowd modes:
exact mode runs every client as a singleton group with mailbox
reports; cohort mode groups with :func:`~repro.core.cohort.group_cohorts`
and synthesizes every member's report from the group's meter.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.core.client import MFCClient, RequestCommand
from repro.core.cohort import (
    Cohort,
    CohortCrowd,
    CohortMeter,
    epoch_drain_s,
    epoch_ramp_fraction,
    group_cohorts,
    synthesize_cohort_reports,
)
from repro.core.config import (
    EPOCH_GAP_S,
    LIVENESS_TIMEOUT_S,
    REPORT_SLACK_S,
    SCHEDULE_LEAD_S,
    MFCConfig,
)
from repro.core.epochs import PlannerSpec, degradation_aggregate_sorted
from repro.core.hardening import Hardened, HardeningPolicy, Verdict
from repro.core.records import (
    ClientReport,
    EpochLabel,
    EpochResult,
    MFCResult,
    StageOutcome,
    StageResult,
)
from repro.core.scheduler import DelayEstimates, SyncScheduler, naive_plan
from repro.core.stages import StagePlan
from repro.net.control import ControlChannel
from repro.sim.kernel import Simulator
from repro.sim.process import Process


class Mailbox:
    """Where clients post their epoch reports; the coordinator collects.

    Clients hold only :meth:`post`, and the mailbox holds nothing but
    reports, so no client refers back to the coordinator.
    """

    __slots__ = ("_reports",)

    def __init__(self) -> None:
        self._reports: Dict[Tuple[str, int], List[ClientReport]] = {}

    def post(self, payload: Tuple[Tuple[str, int], ClientReport]) -> None:
        epoch_key, report = payload
        self._reports.setdefault(epoch_key, []).append(report)

    def collect(self, epoch_key: Tuple[str, int]) -> List[ClientReport]:
        """Take the reports that arrived for *epoch_key*."""
        return self._reports.pop(epoch_key, [])


class Coordinator:
    """Single coordinator driving a fleet of MFC clients."""

    def __init__(
        self,
        sim: Simulator,
        clients: Sequence[MFCClient],
        control: ControlChannel,
        config: MFCConfig,
        rng: random.Random,
        target_name: str = "target",
        use_naive_scheduling: bool = False,
        planner: Optional[PlannerSpec] = None,
        hardened: bool = False,
        cohorts: Optional[CohortCrowd] = None,
    ) -> None:
        config.validate()
        self.sim = sim
        self.clients = list(clients)
        self.control = control
        self.config = config
        #: live-target defenses; the null policy (the default) keeps the
        #: run byte-identical to the unhardened seed
        self.policy = (Hardened if hardened else HardeningPolicy)(config)
        self.target_name = target_name
        #: epoch-progression strategy (default: the paper's linear ramp)
        self.planner = planner if planner is not None else PlannerSpec()
        # probe-instantiate so bad parameter *values* (not just names)
        # surface at world-build time, not epochs into the run
        self.planner.make(config)
        self._rng = rng
        #: ablation knob: dispatch all commands immediately instead of
        #: using the synchronization arithmetic
        self.use_naive_scheduling = use_naive_scheduling
        self.scheduler = SyncScheduler(config.stagger_interval_s)
        #: cohort mode (None: exact): homogeneous crowd members collapse
        #: into weighted macro-flows (see :mod:`repro.core.cohort`)
        self.cohorts = cohorts
        self._mailbox = Mailbox()
        self._epoch_seq = 0
        #: client id → position in the registration-time live list
        #: (object assignment is positional)
        self._position: Dict[str, int] = {}
        for client in self.clients:
            client.report_sink = self._mailbox.post

    # -- public API -----------------------------------------------------------

    def run(self, stages: Sequence[StagePlan]) -> Process:
        """Run the full experiment; the process returns an MFCResult."""
        return self.sim.process(self._experiment(list(stages)))

    # -- experiment ------------------------------------------------------------------

    def _experiment(self, stages: List[StagePlan]) -> Generator:
        result = MFCResult(target_name=self.target_name, started_at=self.sim.now)

        # registration: keep the clients answering within the window
        alive = yield from self._probe(self.clients)
        live = [c for c in self.clients if c.client_id in alive]
        self._position = {c.client_id: i for i, c in enumerate(live)}
        result.live_clients = len(live)
        if len(live) < self.config.min_clients:
            result.aborted = True
            result.abort_reason = (
                f"only {len(live)} live clients "
                f"(need {self.config.min_clients}); experiment aborted"
            )
            result.ended_at = self.sim.now
            return result

        for stage in stages:
            stage_result = yield from self._run_stage(stage, live)
            result.stages[stage.name] = stage_result
            result.total_requests += stage_result.total_requests
        result.ended_at = self.sim.now
        return result

    def _probe(self, clients: List[MFCClient]) -> Generator:
        """Liveness-probe *clients*; return the ids that answered
        within one ``LIVENESS_TIMEOUT_S`` window."""
        answered: List[str] = []
        for client in clients:
            client.probe(answered.append)
        yield LIVENESS_TIMEOUT_S
        return set(answered)

    # -- per stage --------------------------------------------------------------------

    def _run_stage(self, stage: StagePlan, live: List[MFCClient]) -> Generator:
        stage_result = StageResult(
            stage_name=stage.name,
            outcome=StageOutcome.ABORTED,
            started_at=self.sim.now,
        )
        try:
            yield from self._stage_body(stage, live, stage_result)
        except Exception as exc:  # noqa: BLE001 — commit partials, keep going
            # a mid-stage failure must never eat the epochs already run
            # or leave a bare ABORTED with no explanation: the epochs
            # appended so far stay committed on stage_result, and the
            # reason names the failure
            stage_result.outcome = StageOutcome.ABORTED
            stage_result.reason = (
                f"stage exception: {exc!r} "
                f"({len(stage_result.epochs)} epochs committed)"
            )
        stage_result.ended_at = self.sim.now
        return stage_result

    def _stage_body(
        self, stage: StagePlan, live: List[MFCClient], stage_result: StageResult
    ) -> Generator:
        """Delay computation plus the epoch loop, appending onto
        *stage_result* as results land (so an abort at any point keeps
        everything already observed)."""
        policy = self.policy
        m = self.config.requests_per_client
        yield from policy.start_stage(self, stage, live, stage_result)
        estimates = yield from self._delay_computation(stage, live)
        # base measurements: one command per client, each issuing the
        # stage's full connection count against the server
        stage_result.total_requests += len(estimates) * stage.connections
        policy.screen_bases(estimates)

        planner = self.planner.make(self.config, max_feasible_crowd=len(live) * m)
        while True:
            pool = self._pool(live, estimates)
            # the feasible crowd tracks the *pool*, not the
            # registration-time fleet: a quarantine-shrunken pool would
            # otherwise run epochs clamped below the requested crowd,
            # and the planner — advancing from the clamped size — would
            # re-request the same crowd forever
            planner.max_feasible_crowd = min(self.config.max_crowd, len(pool) * m)
            nxt = planner.next_epoch()
            if nxt is None:
                break
            crowd, label = nxt
            while True:
                if len(pool) < self.config.min_clients:
                    stage_result.reason = (
                        f"attrition: only {len(pool)} active clients "
                        f"(need {self.config.min_clients})"
                    )
                    return
                epoch = yield from self._run_epoch(
                    stage, crowd, label, live, pool, estimates
                )
                stage_result.epochs.append(epoch)
                # crowd counts synchronized commands; churn stages issue
                # `connections` sequential server requests per command
                stage_result.total_requests += crowd * stage.connections
                admission = yield from policy.admit(self, crowd, pool, epoch)
                if admission.verdict is Verdict.ABORT:
                    stage_result.reason = admission.reason
                    return
                if admission.verdict is Verdict.ACCEPT:
                    break
                # the retry re-checked liveness and may have re-measured
                pool = self._pool(live, estimates)
            planner.record(epoch)
            yield from policy.accepted(self)

        stage_result.outcome = planner.outcome or StageOutcome.NO_STOP
        stage_result.stopping_crowd_size = planner.stopping_crowd_size
        stage_result.earliest_degraded_crowd = planner.earliest_degraded_crowd
        stage_result.reason = planner.reason
        if stage_result.outcome is StageOutcome.NO_STOP and (
            planner.max_feasible_crowd < min(self.config.max_crowd, len(live) * m)
        ):
            # the cap the planner actually hit was attrition-shrunken:
            # "no stop up to N" with N below what the fleet supported
            # must not pass as evidence of adequacy
            stage_result.truncated_crowd_cap = planner.max_feasible_crowd

    def _pool(
        self, live: List[MFCClient], estimates: Dict[str, DelayEstimates]
    ) -> List[MFCClient]:
        """Clients eligible for the next epoch: responsive and holding
        trustworthy base measurements (unhardened: all of *live*)."""
        quarantined = self.policy.quarantined
        return [
            c
            for c in live
            if c.client_id not in quarantined and c.client_id in estimates
        ]

    # -- fan-out groups ----------------------------------------------------------------

    def _groups(
        self, clients: List[MFCClient], live: List[MFCClient], stage: StagePlan
    ) -> List[Cohort]:
        """Partition *clients* into fan-out groups, in their order:
        weighted cohorts, or (exact mode) singletons that are their own
        representative, weight 1, with no meter."""
        if self.cohorts is not None:
            return group_cohorts(clients, live, stage)
        return [
            Cohort(
                key=c.client_id,
                members=[c],
                paths={c.client_id: stage.object_for(self._position[c.client_id])},
                rep=c,
            )
            for c in clients
        ]

    def _delay_computation(self, stage: StagePlan, live: List[MFCClient]) -> Generator:
        """Measure T_coord / T_target / base response times (§2.2.4).

        The policy's quarantined clients sit out the sequential
        measurements — an unreachable client must not stall the phase
        for a kill-timer interval per probe.  Object assignment stays
        indexed by position in *live*, so skipping never shifts anyone
        else's object.

        Each group's representative takes one real T_target + base
        measurement; other cohort members get an RTT draw from their own
        latency stream and a base synthesized from the representative's,
        shifted by the RTT difference — every member still lands in the
        estimates so the hardened pool-eligibility logic sees the full
        fleet.
        """
        estimates: Dict[str, DelayEstimates] = {}
        # T_coord: coordinator pings every client in parallel
        coord_rtts: Dict[str, float] = {}
        for client in live:
            self.control.ping(
                client.node.latency_to_coord,
                lambda rtt, cid=client.client_id: coord_rtts.setdefault(cid, rtt),
            )
        yield LIVENESS_TIMEOUT_S

        # T_target + base response times: strictly sequential so the
        # measurements do not impact each other (§2.2.3)
        quarantined = self.policy.quarantined
        eligible = [c for c in live if c.client_id not in quarantined]
        for group in self._groups(eligible, live, stage):
            rep = group.rep
            rep_rtt = yield from rep.measure_target_rtt()
            rep_path = group.paths[rep.client_id]
            yield from rep.measure_base(
                [rep_path],
                stage.method,
                body_bytes=stage.body_bytes,
                connections=stage.connections,
            )
            rep_base = rep.base_times[rep_path]
            for member in group.members:
                if member is rep:
                    target_rtt = rep_rtt
                else:
                    # zero-sim-time draw from the member's own latency
                    # stream: distributionally exact (spikes included)
                    target_rtt = member.node.latency_to_target.sample_rtt()
                    member.measured_target_rtt = target_rtt
                    member.base_times[group.paths[member.client_id]] = max(
                        0.0,
                        rep_base
                        + 2.0 * stage.connections * (target_rtt - rep_rtt),
                    )
                estimates[member.client_id] = DelayEstimates(
                    client_id=member.client_id,
                    coord_rtt_s=coord_rtts.get(
                        member.client_id, member.node.latency_to_coord.base_rtt
                    ),
                    target_rtt_s=target_rtt,
                )
        return estimates

    # -- per epoch --------------------------------------------------------------------

    def _run_epoch(
        self,
        stage: StagePlan,
        crowd: int,
        label: EpochLabel,
        live: List[MFCClient],
        pool: List[MFCClient],
        estimates: Dict[str, DelayEstimates],
    ) -> Generator:
        """One epoch: one command per group representative.

        Exact-mode singletons report over the control channel into the
        mailbox; cohort representatives fire weighted macro-requests
        that fill a per-group meter, from which every member's report
        is synthesized after the drain.
        """
        self._epoch_seq += 1
        epoch_key = (stage.name, self._epoch_seq)
        m = self.config.requests_per_client
        n_clients = min(math.ceil(crowd / m), len(pool))
        participants = self._rng.sample(pool, n_clients)
        scheduled_requests = n_clients * m

        groups = self._groups(participants, live, stage)
        rep_estimates = [estimates[g.rep.client_id] for g in groups]
        now = self.sim.now
        if self.use_naive_scheduling:
            plans = naive_plan(now, rep_estimates)
            target_time = now
        else:
            target_time = (
                self.scheduler.earliest_feasible_T(now, rep_estimates)
                + SCHEDULE_LEAD_S
            )
            plans = self.scheduler.plan(now, target_time, rep_estimates)

        cohorts = self.cohorts
        # one plan per group, in group order
        for group, plan in zip(groups, plans):
            rep = group.rep
            if cohorts is not None:
                group.meter = CohortMeter(group.weight, pipe=cohorts.pipe(group))
            command = RequestCommand(
                epoch_key=epoch_key,
                path=group.paths[rep.client_id],
                method=stage.method,
                n_parallel=m,
                body_bytes=stage.body_bytes,
                connections=stage.connections,
                weight=group.weight,
                meter=group.meter,
            )
            self.sim.call_at(
                plan.dispatch_time,
                lambda c=rep, cmd=command: self.control.send(
                    c.node.latency_to_coord, c.execute_command, cmd
                ),
            )

        # wait out the epoch: commands, requests (≤10 s), reports
        drain_until = (
            max(p.intended_arrival for p in plans)
            + EPOCH_GAP_S
            + REPORT_SLACK_S
        )
        yield max(drain_until - self.sim.now, 0.0)

        reports = self._mailbox.collect(epoch_key)
        if cohorts is not None:
            # representatives never report over the control channel in
            # cohort mode; everything is synthesized here
            drain = epoch_drain_s(groups)
            ramp = epoch_ramp_fraction(groups, drain)
            for group, plan in zip(groups, plans):
                reports.extend(
                    synthesize_cohort_reports(
                        group,
                        cohorts.rng,
                        self.control.loss_prob,
                        group.rep.fault_gate,
                        plan.intended_arrival,
                        drain,
                        connections=stage.connections,
                        ramp=ramp,
                    )
                )

        epoch = EpochResult(
            index=self._epoch_seq,
            label=label,
            crowd_size=scheduled_requests,
            clients_used=n_clients,
            target_time=target_time,
            reports=reports,
            missing_reports=scheduled_requests - len(reports),
        )
        samples = self.policy.samples(reports)
        if samples:
            # one sort per epoch: every statistic computed over this
            # epoch's normalized times reads the same ordered sample
            ordered = sorted(r.normalized_s for r in samples)
            epoch.aggregate_normalized_s = degradation_aggregate_sorted(
                ordered, stage.degradation_quantile
            )
            epoch.degraded = epoch.aggregate_normalized_s > self.config.threshold_s
        return epoch
