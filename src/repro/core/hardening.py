"""Live-target hardening of the MFC epoch loop, as one policy.

:class:`HardeningPolicy` is the null policy and encodes the paper's
algorithm (Figure 2(a)): it never re-probes, screens no bases, keeps
every timed sample and accepts every epoch.  :class:`Hardened` adds the
defenses a faulty live target needs.  The coordinator module docstring
lists where the epoch loop consults the policy.
"""

from __future__ import annotations

import enum
import math
from typing import TYPE_CHECKING, AbstractSet, Dict, Generator, List, NamedTuple, Optional

from repro.core.config import REQUEST_TIMEOUT_S
from repro.core.records import ClientReport, EpochLabel, EpochResult, StageResult
from repro.core.scheduler import DelayEstimates
from repro.core.stages import StagePlan
from repro.server.http import Status

if TYPE_CHECKING:
    from repro.core.client import MFCClient
    from repro.core.config import MFCConfig
    from repro.core.coordinator import Coordinator

#: a degradation verdict whose aggregate lands this close to the kill
#: timer rests on censored (killed) samples, not on measured queueing
#: delay — genuine θ-level degradation sits orders of magnitude below
#: the 10 s timeout
CENSORED_AGGREGATE_FRACTION = 0.5
#: an epoch where at least this fraction of reports beat their own
#: unloaded base by more than θ is built on poisoned bases
STALE_BASE_FRACTION = 0.10
#: re-probe client liveness every this many accepted epochs
RELIVENESS_EVERY_EPOCHS = 1
#: an epoch missing more than this fraction of its scheduled reports is
#: invalid — retried, never fed to the planner
MAX_EPOCH_ATTRITION = 0.5
#: retries per invalid epoch before aborting the stage
EPOCH_RETRY_LIMIT = 2
#: consecutive sick unloaded health probes before the safety abort
#: backs off (the paper's non-intrusiveness rule)
SAFETY_ABORT_CHECKS = 2


class Verdict(enum.Enum):
    """What the epoch loop does with the epoch it just ran."""

    ACCEPT = "accept"  # feed it to the planner
    RETRY = "retry"    # keep it for the audit trail, rerun the crowd
    ABORT = "abort"    # end the stage here


class Admission(NamedTuple):
    """The policy's answer for one epoch, and why it is not an accept."""

    verdict: Verdict
    reason: str = ""


ACCEPT = Admission(Verdict.ACCEPT)


class HardeningPolicy:
    """The paper's algorithm, unhardened: the null policy.  No hook
    touches the event or RNG sequence, so runs stay byte-identical.

    The coordinator owns its policy and passes itself into the hooks
    that call back into it; the policy keeps no reference to it."""

    #: client ids left out of base measurements and crowds
    quarantined: AbstractSet[str] = frozenset()

    def __init__(self, config: MFCConfig) -> None:
        self.config = config

    def start_stage(
        self,
        coordinator: "Coordinator",
        stage: StagePlan,
        live: List["MFCClient"],
        result: StageResult,
    ) -> Generator:
        """Before the delay computation of *stage*, run over *live*."""
        return
        yield  # a generator that never suspends

    def screen_bases(self, estimates: Dict[str, DelayEstimates]) -> None:
        """After the base measurements; may drop entries of the stage's
        *estimates* and re-measure them in place later."""

    def admit(
        self,
        coordinator: "Coordinator",
        crowd: int,
        pool: List["MFCClient"],
        epoch: EpochResult,
    ) -> Generator:
        """Judge the epoch just run at *crowd* over *pool*; returns an
        :class:`Admission`."""
        return ACCEPT
        yield  # a generator that never suspends

    def accepted(self, coordinator: "Coordinator") -> Generator:
        """After an accepted epoch reached the planner."""
        return
        yield  # a generator that never suspends

    def samples(self, reports: List[ClientReport]) -> List[ClientReport]:
        """The reports whose normalized times feed the epoch aggregate."""
        # connection resets carry no timing sample (the fault-injection
        # RESET sentinel); fault-free runs never see one, so the filter
        # is a byte-identical no-op there
        return [r for r in reports if r.status is not Status.RESET]


class Hardened(HardeningPolicy):
    """Re-liveness with client quarantine, poisoned-base screening,
    invalid-epoch retry with stale-base re-measurement, carrier-targeted
    health probes and the safety abort.  Owns the quarantine set, the
    sick-probe streak and the retry count of the stage in progress."""

    def start_stage(
        self,
        coordinator: "Coordinator",
        stage: StagePlan,
        live: List["MFCClient"],
        result: StageResult,
    ) -> Generator:
        self.stage, self.live, self.result = stage, live, result
        self._sick_streak = self._attempts = self._accepted = 0
        # a client that died since registration must not hold up the
        # sequential measurement phase
        yield from self._reliveness(coordinator)

    def screen_bases(self, estimates: Dict[str, DelayEstimates]) -> None:
        """Drop clients whose base measurement hit the kill timer.

        A timed-out base poisons normalization for the whole stage
        (every later sample reads ``elapsed - timeout`` ≈ negative, i.e.
        spuriously clean), so such clients sit the stage out.
        """
        self.estimates = estimates
        for index, client in enumerate(self.live):
            if client.client_id not in estimates:
                continue
            path = self.stage.object_for(index)
            if client.base_times.get(path, 0.0) >= REQUEST_TIMEOUT_S:
                del estimates[client.client_id]
        self.result.quarantined_clients = max(
            self.result.quarantined_clients, len(self.live) - len(estimates)
        )

    def admit(
        self,
        coordinator: "Coordinator",
        crowd: int,
        pool: List["MFCClient"],
        epoch: EpochResult,
    ) -> Generator:
        problem = self._epoch_problem(epoch)
        stale_problem = None
        if problem is None:
            problem = stale_problem = self._stale_bases(epoch)
        if problem is None and epoch.degraded:
            # validity gate (the paper's crowd-causality rule):
            # degradation only counts as a signal if the site is healthy
            # *without* the crowd — an unloaded probe degraded too means
            # ambient interference (latency storm, middleware stall),
            # not queueing
            healthy = yield from self._health_probe(coordinator, pool, epoch)
            if healthy:
                self._sick_streak = 0
            else:
                self._sick_streak += 1
                if self._sick_streak >= SAFETY_ABORT_CHECKS:
                    return Admission(
                        Verdict.ABORT,
                        "safety abort: baseline health degraded under no "
                        f"load ({self._sick_streak} consecutive sick probes); "
                        "backing off (non-intrusiveness)",
                    )
                problem = (
                    "ambient degradation: the unloaded baseline probe is "
                    "degraded too, so the epoch's signal is not crowd-caused"
                )
        if problem is None:
            if not epoch.degraded:
                self._sick_streak = 0
            if epoch.crowd_size >= self.config.min_significant_crowd:
                # only verdict-bearing epochs count: one noisy sample
                # out of a 5-request warm-up epoch is 20% "attrition"
                # that says nothing about the crowds the stopping rule
                # actually reads
                self.result.max_missing_fraction = max(
                    self.result.max_missing_fraction, self._epoch_attrition(epoch)
                )
                if not epoch.degraded and epoch.aggregate_normalized_s < 0:
                    # a healthy epoch's aggregate quantile has no
                    # business being negative: its magnitude reads the
                    # stage's sample noise directly
                    self.result.signal_noise_fraction = max(
                        self.result.signal_noise_fraction,
                        -epoch.aggregate_normalized_s / self.config.threshold_s,
                    )
            self._attempts = 0
            return ACCEPT
        # invalid: keep it for the audit trail, never feed the planner,
        # re-check liveness and retry the crowd size
        epoch.label = EpochLabel.INVALID
        self.result.invalid_epochs += 1
        self._attempts += 1
        if self._attempts > EPOCH_RETRY_LIMIT:
            return Admission(
                Verdict.ABORT,
                f"invalid epoch at crowd {crowd} after {self._attempts} "
                f"attempts: {problem}",
            )
        yield from self._reliveness(coordinator)
        if stale_problem is not None:
            # the stage's base measurements are poisoned (taken during a
            # transient inflation that has passed): every sample
            # normalized against them is suspect, including the ones
            # that don't read implausible — a stale base plus real
            # queueing cancels into a clean-looking number that masks
            # the knee.  The only honest recovery is fresh bases for the
            # whole pool before retrying the crowd.
            fresh = yield from coordinator._delay_computation(self.stage, self.live)
            self.result.total_requests += len(fresh) * self.stage.connections
            self.estimates.clear()
            self.estimates.update(fresh)
            self.screen_bases(self.estimates)
        return Admission(Verdict.RETRY, problem)

    def accepted(self, coordinator: "Coordinator") -> Generator:
        self._accepted += 1
        if self._accepted % RELIVENESS_EVERY_EPOCHS == 0:
            yield from self._reliveness(coordinator)

    def samples(self, reports: List[ClientReport]) -> List[ClientReport]:
        # a loaded response that beat its own unloaded base by more than
        # θ is physically implausible — its base was measured during a
        # transient inflation, and folding it into the quantile drags
        # the aggregate down and masks a real knee.  Such samples carry
        # no usable timing information (they still count toward
        # attrition).
        floor = -self.config.threshold_s
        return [r for r in super().samples(reports) if r.normalized_s >= floor]

    def _reliveness(self, coordinator: "Coordinator") -> Generator:
        """Re-probe the fleet mid-experiment; quarantine non-responders.

        The quarantine set is fully re-derived each check, so a client
        that answers again (dropout window closed) rejoins — for the
        current stage only if it still holds usable base measurements,
        otherwise at the next stage's delay computation.
        """
        alive = yield from coordinator._probe(self.live)
        self.quarantined = {c.client_id for c in self.live} - alive
        self.result.quarantined_clients = max(
            self.result.quarantined_clients, len(self.quarantined)
        )

    def _epoch_attrition(self, epoch: EpochResult) -> float:
        """Fraction of scheduled reports that produced no usable sample
        (never arrived, arrived as a sample-free connection reset, or
        read implausibly fast against a stale base)."""
        scheduled = max(epoch.crowd_size, 1)
        return 1.0 - len(self.samples(epoch.reports)) / scheduled

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
        stale = sum(1 for r in epoch.reports if r.normalized_s < -self.config.threshold_s)
        floor = max(2, math.ceil(STALE_BASE_FRACTION * len(epoch.reports)))
        if stale < floor:
            return None
        return (
            f"stale base measurements: {stale} of {len(epoch.reports)} "
            "reports came back faster loaded than unloaded"
        )

    def _epoch_problem(self, epoch: EpochResult) -> Optional[str]:
        """Why this epoch cannot be trusted (None: it can)."""
        attrition = self._epoch_attrition(epoch)
        if attrition > MAX_EPOCH_ATTRITION:
            return (
                f"lost {attrition:.0%} of scheduled reports "
                f"(limit {MAX_EPOCH_ATTRITION:.0%})"
            )
        censor_floor = CENSORED_AGGREGATE_FRACTION * REQUEST_TIMEOUT_S
        if epoch.degraded and epoch.aggregate_normalized_s > censor_floor:
            return (
                "degradation signal rests on killed requests (aggregate "
                f"{epoch.aggregate_normalized_s:.1f}s vs the "
                f"{REQUEST_TIMEOUT_S:.0f}s kill timer)"
            )
        return None

    def _health_probe(
        self, coordinator: "Coordinator", pool: List["MFCClient"], epoch: EpochResult
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
        carriers = sorted(
            (r for r in epoch.reports if r.client_id in by_id),
            key=lambda r: r.normalized_s,
            reverse=True,
        )
        # the two worst distinct carriers (no carrier left: any client)
        worst = list(dict.fromkeys(by_id[r.client_id] for r in carriers))
        probers = worst[:2] or [pool[0]]
        stage = self.stage
        position = coordinator._position
        for client in probers:
            status, normalized = yield from client.probe_unloaded(
                stage.object_for(position[client.client_id]),
                stage.method,
                body_bytes=stage.body_bytes,
                connections=stage.connections,
            )
            self.result.total_requests += stage.connections
            if status is Status.OK and normalized <= self.config.threshold_s:
                return True
        return False
