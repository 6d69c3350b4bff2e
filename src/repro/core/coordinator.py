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
    CohortMeter,
    epoch_drain_s,
    epoch_ramp_fraction,
    group_cohorts,
    synthesize_cohort_reports,
)
from repro.core.config import MFCConfig
from repro.core.epochs import PlannerSpec, degradation_aggregate_sorted
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
from repro.server.http import Status
from repro.sim.kernel import Simulator
from repro.sim.process import Process

#: hardened: a degradation verdict whose aggregate lands this close to
#: the kill timer rests on censored (killed) samples, not on measured
#: queueing delay — genuine θ-level degradation sits orders of
#: magnitude below the 10 s timeout
CENSORED_AGGREGATE_FRACTION = 0.5
#: hardened mode: an epoch where at least this fraction of reports beat
#: their own unloaded base by more than θ is built on poisoned bases
STALE_BASE_FRACTION = 0.10


class Coordinator:
    """Single coordinator driving a fleet of MFC clients."""

    def __init__(
        self,
        sim: Simulator,
        clients: Sequence[MFCClient],
        control: ControlChannel,
        config: MFCConfig,
        target_name: str = "target",
        rng: Optional[random.Random] = None,
        use_naive_scheduling: bool = False,
        planner: Optional[PlannerSpec] = None,
        hardened: bool = False,
        crowd_mode: str = "exact",
        network=None,
        cohort_rng: Optional[random.Random] = None,
    ) -> None:
        config.validate()
        self.sim = sim
        self.clients = list(clients)
        #: live-target defenses: re-liveness with quarantine, invalid
        #: epoch retry, safety-abort guard.  Off (the default) keeps the
        #: event/RNG sequence byte-identical to the unhardened seed.
        self.hardened = hardened
        #: client ids the last re-liveness check could not reach
        self._quarantined: set = set()
        self.control = control
        self.config = config
        self.target_name = target_name
        #: epoch-progression strategy (default: the paper's linear ramp)
        self.planner = planner if planner is not None else PlannerSpec()
        # probe-instantiate so bad parameter *values* (not just names)
        # surface at world-build time, not epochs into the run
        self.planner.make(config)
        self._rng = rng if rng is not None else random.Random(0)
        #: ablation knob: dispatch all commands immediately instead of
        #: using the synchronization arithmetic
        self.use_naive_scheduling = use_naive_scheduling
        self.scheduler = SyncScheduler(config.stagger_interval_s)
        #: "cohort": homogeneous crowd members collapse into weighted
        #: macro-flows (see :mod:`repro.core.cohort`); needs the fluid
        #: network for macro-flow pipes — synthetic-service worlds pass
        #: network=None and silently stay exact
        self.crowd_mode = crowd_mode if network is not None else "exact"
        self.network = network
        self._cohort_rng = (
            cohort_rng if cohort_rng is not None else random.Random(0)
        )
        #: cohort key → dedicated macro-flow access link, reused across
        #: epochs with per-epoch capacity = weight × member access bps
        self._cohort_pipes: Dict[Tuple, object] = {}
        self._mailbox: Dict[Tuple[str, int], List[ClientReport]] = {}
        self._epoch_seq = 0
        #: client id → position in the registration-time live list
        #: (object assignment is positional)
        self._position: Dict[str, int] = {}
        for client in self.clients:
            client.report_sink = self._deliver_report

    # -- public API -----------------------------------------------------------

    def run(self, stages: Sequence[StagePlan]) -> Process:
        """Run the full experiment; the process returns an MFCResult."""
        return self.sim.process(self._experiment(list(stages)))

    # -- report plumbing ----------------------------------------------------------

    def _deliver_report(self, payload: Tuple[Tuple[str, int], ClientReport]) -> None:
        epoch_key, report = payload
        self._mailbox.setdefault(epoch_key, []).append(report)

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
        within one ``liveness_timeout_s`` window."""
        answered: List[str] = []
        for client in clients:
            client.probe(answered.append)
        yield self.config.liveness_timeout_s
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
        if self.hardened:
            # a client that died since registration must not hold up
            # the sequential measurement phase
            yield from self._reliveness(live, stage_result)
        skip = frozenset(self._quarantined)
        estimates = yield from self._delay_computation(stage, live, skip=skip)
        # base measurements: one command per client, each issuing the
        # stage's full connection count against the server
        stage_result.total_requests += len(estimates) * stage.connections
        if self.hardened:
            self._quarantine_poisoned_bases(stage, live, estimates, stage_result)

        planner = self.planner.make(
            self.config,
            max_feasible_crowd=len(live) * self.config.requests_per_client,
        )
        epochs_accepted = 0
        sick_streak = 0
        while True:
            if (
                self.hardened
                and self.config.stage_timeout_s is not None
                and self.sim.now - stage_result.started_at
                > self.config.stage_timeout_s
            ):
                stage_result.reason = (
                    f"stage timeout: exceeded the "
                    f"{self.config.stage_timeout_s:.0f}s budget"
                )
                return
            if self.hardened:
                # the feasible crowd tracks the *pool*, not the
                # registration-time fleet: a quarantine-shrunken pool
                # would otherwise run epochs clamped below the
                # requested crowd, and the planner — advancing from
                # the clamped size — would re-request the same crowd
                # forever
                planner.max_feasible_crowd = min(
                    self.config.max_crowd,
                    len(self._pool(live, estimates))
                    * self.config.requests_per_client,
                )
            nxt = planner.next_epoch()
            if nxt is None:
                break
            crowd, label = nxt
            attempts = 0
            while True:
                pool = self._pool(live, estimates)
                if self.hardened and len(pool) < self.config.min_clients:
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
                if not self.hardened:
                    break
                problem = self._epoch_problem(epoch)
                stale_problem = None
                if problem is None:
                    problem = stale_problem = self._stale_bases(epoch)
                if problem is None and epoch.degraded:
                    # validity gate (the paper's crowd-causality rule):
                    # degradation only counts as a signal if the site
                    # is healthy *without* the crowd — an unloaded
                    # probe degraded too means ambient interference
                    # (latency storm, middleware stall), not queueing
                    healthy = yield from self._health_probe(
                        stage, pool, stage_result, epoch
                    )
                    if healthy:
                        sick_streak = 0
                    else:
                        sick_streak += 1
                        if sick_streak >= self.config.safety_abort_checks:
                            stage_result.reason = (
                                "safety abort: baseline health degraded "
                                f"under no load ({sick_streak} consecutive "
                                "sick probes); backing off "
                                "(non-intrusiveness)"
                            )
                            return
                        problem = (
                            "ambient degradation: the unloaded baseline "
                            "probe is degraded too, so the epoch's signal "
                            "is not crowd-caused"
                        )
                if problem is None:
                    if not epoch.degraded:
                        sick_streak = 0
                    if (
                        epoch.crowd_size
                        >= self.config.min_significant_crowd
                    ):
                        # only verdict-bearing epochs count: one noisy
                        # sample out of a 5-request warm-up epoch is
                        # 20% "attrition" that says nothing about the
                        # crowds the stopping rule actually reads
                        stage_result.max_missing_fraction = max(
                            stage_result.max_missing_fraction,
                            self._epoch_attrition(epoch),
                        )
                        if (
                            not epoch.degraded
                            and epoch.aggregate_normalized_s < 0
                        ):
                            # a healthy epoch's aggregate quantile has
                            # no business being negative: its magnitude
                            # reads the stage's sample noise directly
                            stage_result.signal_noise_fraction = max(
                                stage_result.signal_noise_fraction,
                                -epoch.aggregate_normalized_s
                                / self.config.threshold_s,
                            )
                    break
                # invalid: keep it for the audit trail, never feed the
                # planner, re-check liveness and retry the crowd size
                epoch.label = EpochLabel.INVALID
                stage_result.invalid_epochs += 1
                attempts += 1
                if attempts > self.config.epoch_retry_limit:
                    stage_result.reason = (
                        f"invalid epoch at crowd {crowd} after "
                        f"{attempts} attempts: {problem}"
                    )
                    return
                yield from self._reliveness(live, stage_result)
                if stale_problem is not None:
                    # the stage's base measurements are poisoned (taken
                    # during a transient inflation that has passed):
                    # every sample normalized against them is suspect,
                    # including the ones that don't read implausible —
                    # a stale base plus real queueing cancels into a
                    # clean-looking number that masks the knee.  The
                    # only honest recovery is fresh bases for the whole
                    # pool before retrying the crowd.
                    fresh = yield from self._delay_computation(
                        stage, live, skip=frozenset(self._quarantined)
                    )
                    stage_result.total_requests += (
                        len(fresh) * stage.connections
                    )
                    estimates.clear()
                    estimates.update(fresh)
                    self._quarantine_poisoned_bases(
                        stage, live, estimates, stage_result
                    )
            planner.record(epoch)
            epochs_accepted += 1
            if self.hardened:
                if epochs_accepted % self.config.reliveness_every_epochs == 0:
                    yield from self._reliveness(live, stage_result)

        stage_result.outcome = planner.outcome or StageOutcome.NO_STOP
        stage_result.stopping_crowd_size = planner.stopping_crowd_size
        stage_result.earliest_degraded_crowd = planner.earliest_degraded_crowd
        stage_result.reason = planner.reason
        if (
            self.hardened
            and stage_result.outcome is StageOutcome.NO_STOP
            and planner.max_feasible_crowd
            < min(
                self.config.max_crowd,
                len(live) * self.config.requests_per_client,
            )
        ):
            # the cap the planner actually hit was attrition-shrunken:
            # "no stop up to N" with N below what the fleet supported
            # must not pass as evidence of adequacy
            stage_result.truncated_crowd_cap = planner.max_feasible_crowd

    # -- hardening helpers ------------------------------------------------------------

    def _reliveness(
        self, live: List[MFCClient], stage_result: Optional[StageResult] = None
    ) -> Generator:
        """Re-probe the fleet mid-experiment; quarantine non-responders.

        The quarantine set is fully re-derived each check, so a client
        that answers again (dropout window closed) rejoins — for the
        current stage only if it still holds usable base measurements,
        otherwise at the next stage's delay computation.
        """
        alive = yield from self._probe(live)
        self._quarantined = {c.client_id for c in live} - alive
        if stage_result is not None:
            stage_result.quarantined_clients = max(
                stage_result.quarantined_clients, len(self._quarantined)
            )

    def _pool(
        self, live: List[MFCClient], estimates: Dict[str, DelayEstimates]
    ) -> List[MFCClient]:
        """Clients eligible for the next epoch (hardened: responsive
        and holding trustworthy base measurements)."""
        if not self.hardened:
            return live
        return [
            c
            for c in live
            if c.client_id not in self._quarantined and c.client_id in estimates
        ]

    def _quarantine_poisoned_bases(
        self,
        stage: StagePlan,
        live: List[MFCClient],
        estimates: Dict[str, DelayEstimates],
        stage_result: StageResult,
    ) -> None:
        """Drop clients whose base measurement hit the kill timer.

        A timed-out base poisons normalization for the whole stage
        (every later sample reads ``elapsed - timeout`` ≈ negative, i.e.
        spuriously clean), so such clients sit the stage out.
        """
        for index, client in enumerate(live):
            if client.client_id not in estimates:
                continue
            path = stage.object_for(index)
            if client.base_times.get(path, 0.0) >= self.config.request_timeout_s:
                del estimates[client.client_id]
        stage_result.quarantined_clients = max(
            stage_result.quarantined_clients,
            len(live) - len(estimates),
        )

    def _epoch_attrition(self, epoch: EpochResult) -> float:
        """Fraction of scheduled reports that produced no usable sample
        (never arrived, arrived as a sample-free connection reset, or
        read implausibly fast against a stale base)."""
        scheduled = max(epoch.crowd_size, 1)
        usable = sum(
            1
            for r in epoch.reports
            if r.status is not Status.RESET
            and r.normalized_s >= -self.config.threshold_s
        )
        return 1.0 - usable / scheduled

    def _stale_bases(self, epoch: EpochResult) -> Optional[str]:
        """Detect base measurements poisoned by a transient slowdown.

        A report whose *loaded* response beat its client's unloaded
        base by more than θ is physically implausible — the base was
        measured during some transient inflation (latency storm, stall
        window) that has since passed, and every sample it normalizes
        will read spuriously clean, masking a real knee.  When a
        nontrivial fraction of an epoch reads that way, the epoch is
        invalid; the retry path re-measures the whole pool's bases
        (a single stale reading is tolerated as measurement noise).
        """
        if not epoch.reports:
            return None
        stale = sum(
            1
            for r in epoch.reports
            if r.normalized_s < -self.config.threshold_s
        )
        floor = max(2, math.ceil(STALE_BASE_FRACTION * len(epoch.reports)))
        if stale < floor:
            return None
        return (
            f"stale base measurements: {stale} of "
            f"{len(epoch.reports)} reports came back faster loaded than "
            "unloaded"
        )

    def _epoch_problem(self, epoch: EpochResult) -> Optional[str]:
        """Why this epoch cannot be trusted (None: it can)."""
        attrition = self._epoch_attrition(epoch)
        if attrition > self.config.max_epoch_attrition:
            return (
                f"lost {attrition:.0%} of scheduled reports "
                f"(limit {self.config.max_epoch_attrition:.0%})"
            )
        censor_floor = CENSORED_AGGREGATE_FRACTION * self.config.request_timeout_s
        if epoch.degraded and epoch.aggregate_normalized_s > censor_floor:
            return (
                "degradation signal rests on killed requests (aggregate "
                f"{epoch.aggregate_normalized_s:.1f}s vs the "
                f"{self.config.request_timeout_s:.0f}s kill timer)"
            )
        return None

    def _health_probe(
        self,
        stage: StagePlan,
        pool: List[MFCClient],
        stage_result: StageResult,
        epoch: Optional[EpochResult] = None,
    ) -> Generator:
        """One unloaded request after a degraded epoch (paper's
        non-intrusiveness rule): if the target is slow even with no
        crowd, the degradation is not ours to probe further.

        The probes go through the clients that *carried* the
        degradation signal — the worst normalized samples of the epoch
        — not arbitrary ones: under a partial-fleet disturbance (a
        stall or latency storm hitting half the clients) an unaffected
        bystander would report the site healthy while the signal
        clients are ambiently slow, and the fake knee would be
        accepted.  Conversely one probe is not allowed to overturn the
        epoch on its own — a single unloaded request can hit transient
        server noise — so "ambient" takes two independent sick reads
        (the two worst carriers); any healthy probe accepts the epoch.
        """
        if not pool:
            return False
        by_id = {c.client_id: c for c in pool}
        reports = sorted(
            (r for r in (epoch.reports if epoch else []) if r.client_id in by_id),
            key=lambda r: r.normalized_s,
            reverse=True,
        )
        probers: List[MFCClient] = []
        for report in reports:
            client = by_id[report.client_id]
            if client not in probers:
                probers.append(client)
            if len(probers) == 2:
                break
        if not probers:
            probers = [pool[0]]
        for client in probers:
            status, normalized = yield from client.probe_unloaded(
                stage.object_for(self._position[client.client_id]),
                stage.method,
                body_bytes=stage.body_bytes,
                connections=stage.connections,
            )
            stage_result.total_requests += stage.connections
            if status is Status.OK and normalized <= self.config.threshold_s:
                return True
        return False

    # -- fan-out groups ----------------------------------------------------------------

    def _groups(
        self, clients: List[MFCClient], live: List[MFCClient], stage: StagePlan
    ) -> List[Cohort]:
        """Partition *clients* into fan-out groups, in their order:
        weighted cohorts, or (exact mode) singletons that are their own
        representative, weight 1, with no meter."""
        if self.crowd_mode == "cohort":
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

    def _delay_computation(
        self, stage: StagePlan, live: List[MFCClient], skip: frozenset = frozenset()
    ) -> Generator:
        """Measure T_coord / T_target / base response times (§2.2.4).

        *skip* (hardened re-liveness quarantine) names clients left out
        of the sequential measurements — an unreachable client must not
        stall the phase for a kill-timer interval per probe.  Object
        assignment stays indexed by position in *live*, so skipping
        never shifts anyone else's object.

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
        yield self.config.liveness_timeout_s

        # T_target + base response times: strictly sequential so the
        # measurements do not impact each other (§2.2.3)
        eligible = [c for c in live if c.client_id not in skip]
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
        participants = (
            self._rng.sample(pool, n_clients)
            if self.config.random_client_selection
            else pool[:n_clients]
        )
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
                + self.config.schedule_lead_s
            )
            plans = self.scheduler.plan(now, target_time, rep_estimates)

        cohort_mode = self.crowd_mode == "cohort"
        # one plan per group, in group order
        for group, plan in zip(groups, plans):
            rep = group.rep
            if cohort_mode:
                group.meter = CohortMeter(
                    group.weight, pipe=self._cohort_pipe(group)
                )
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
            + self.config.epoch_gap_s
            + self.config.report_slack_s
        )
        yield max(drain_until - self.sim.now, 0.0)

        reports = self._mailbox.pop(epoch_key, [])
        if cohort_mode:
            # representatives never report over the control channel in
            # cohort mode; everything is synthesized here
            drain = epoch_drain_s(groups)
            ramp = epoch_ramp_fraction(groups, drain)
            for group, plan in zip(groups, plans):
                reports.extend(
                    synthesize_cohort_reports(
                        group,
                        self.config,
                        self._cohort_rng,
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
        # connection resets carry no timing sample (the fault-injection
        # RESET sentinel); fault-free runs never see one, so the filter
        # is a byte-identical no-op there
        samples = [r for r in reports if r.status is not Status.RESET]
        if self.hardened:
            # a loaded response that beat its own unloaded base by more
            # than θ is physically implausible — its base was measured
            # during a transient inflation, and folding it into the
            # quantile drags the aggregate down and masks a real knee.
            # Hardened mode treats such samples as carrying no usable
            # timing information (they still count toward attrition).
            samples = [
                r for r in samples if r.normalized_s >= -self.config.threshold_s
            ]
        if samples:
            # one sort per epoch: every statistic computed over this
            # epoch's normalized times reads the same ordered sample
            ordered = sorted(r.normalized_s for r in samples)
            epoch.aggregate_normalized_s = degradation_aggregate_sorted(
                ordered, stage.degradation_quantile
            )
            epoch.degraded = epoch.aggregate_normalized_s > self.config.threshold_s
        return epoch

    def _cohort_pipe(self, cohort: Cohort):
        """Get or create the cohort's macro-flow access link, sized to
        the whole cohort's aggregate access capacity this epoch."""
        capacity = cohort.weight * cohort.rep.node.spec.access_bps
        pipe = self._cohort_pipes.get(cohort.key)
        if pipe is None:
            pipe = self.network.add_link(
                f"cohort:{self.target_name}:{len(self._cohort_pipes)}", capacity
            )
            self._cohort_pipes[cohort.key] = pipe
        else:
            self.network.set_capacity(pipe, capacity)
        return pipe
