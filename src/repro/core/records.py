"""Result records for MFC experiments."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.server.http import Status


# a cohort world's result holds tens of thousands of these: slotted
@dataclass(frozen=True, slots=True)
class ClientReport:
    """One client's report for one request in one epoch.

    Mirrors the paper's poll payload: ``(client ID, HTTP code,
    numbytes, response time)`` plus the normalized response time the
    client derives from its base measurement.
    """

    client_id: str
    status: Status
    numbytes: float
    response_time_s: float
    normalized_s: float

    @property
    def timed_out(self) -> bool:
        """True when the 10 s kill timer fired."""
        return self.status is Status.CLIENT_TIMEOUT


class EpochLabel(enum.Enum):
    """Why an epoch was run."""

    NORMAL = "normal"
    CHECK_MINUS = "check-"     # N−1 confirmation crowd
    CHECK_REPEAT = "check="    # repeat at N
    CHECK_PLUS = "check+"      # N+1 confirmation crowd
    #: hardened coordinator: the epoch lost too many reports (or its
    #: degradation signal rested on killed requests) and was retried —
    #: recorded for the audit trail, never fed to the planner and never
    #: part of the tracking curve
    INVALID = "invalid"


@dataclass
class EpochResult:
    """Everything observed in one epoch."""

    index: int
    label: EpochLabel
    crowd_size: int                  # concurrent requests scheduled
    clients_used: int
    target_time: float               # the synchronized arrival instant T
    reports: List[ClientReport] = field(default_factory=list)
    #: value of the stage's degradation quantile over normalized times
    aggregate_normalized_s: float = 0.0
    degraded: bool = False
    #: reports scheduled but never received (control-channel loss)
    missing_reports: int = 0

    @property
    def reports_received(self) -> int:
        """Number of client reports that reached the coordinator."""
        return len(self.reports)


class StageOutcome(enum.Enum):
    """How a stage ended."""

    STOPPED = "stopped"       # check phase confirmed degradation
    NO_STOP = "no-stop"       # crowd cap reached without degradation
    SKIPPED = "skipped"       # site hosts no qualifying object
    ABORTED = "aborted"       # experiment-level failure


@dataclass
class StageResult:
    """Outcome of one MFC stage."""

    stage_name: str
    outcome: StageOutcome
    #: formal stopping crowd size (requests), None for NO_STOP/SKIPPED
    stopping_crowd_size: Optional[int] = None
    #: smallest crowd whose aggregate exceeded θ even below the
    #: significance minimum (the Univ-1 footnote-2 analysis)
    earliest_degraded_crowd: Optional[int] = None
    epochs: List[EpochResult] = field(default_factory=list)
    started_at: float = 0.0
    ended_at: float = 0.0
    total_requests: int = 0
    reason: str = ""
    #: largest crowd actually scheduled / number of epochs run; derived
    #: from the epochs when unset, carried explicitly by summary-detail
    #: cache records whose epoch list has been dropped
    max_crowd_tested: Optional[int] = None
    n_epochs_recorded: Optional[int] = None
    # -- hardening annotations (set only by the hardened coordinator;
    # zero on every legacy path, and the campaign codec omits them at
    # zero so historical encodings are byte-identical) ----------------
    #: epochs rejected (attrition / censored signal) and retried
    invalid_epochs: int = 0
    #: peak number of clients quarantined by re-liveness checks
    quarantined_clients: int = 0
    #: worst missing-report fraction among *accepted* epochs
    max_missing_fraction: float = 0.0
    #: set when a NO_STOP ended at a crowd cap that client attrition
    #: pushed below what the registered fleet supported — "no stop up
    #: to N" with N shrunken is not evidence of adequacy, and the
    #: inference layer downgrades the verdict to inconclusive
    truncated_crowd_cap: Optional[int] = None
    #: worst *negative* clean-epoch aggregate at a significant crowd,
    #: as a fraction of θ.  The aggregate quantile of a healthy epoch
    #: cannot be meaningfully negative, so its magnitude is a direct
    #: read of the stage's sample noise; once it rivals θ, a stop (or
    #: a NoStop) is a coin flip on noise spikes and the inference
    #: layer downgrades the verdict to inconclusive
    signal_noise_fraction: float = 0.0

    @property
    def duration_s(self) -> float:
        """Wall-clock (simulated) stage duration."""
        return self.ended_at - self.started_at

    @property
    def largest_crowd(self) -> int:
        """Largest crowd size this stage scheduled."""
        if self.max_crowd_tested is not None:
            return self.max_crowd_tested
        return max((e.crowd_size for e in self.epochs), default=0)

    @property
    def epoch_count(self) -> int:
        """Number of epochs the stage ran."""
        if self.n_epochs_recorded is not None:
            return self.n_epochs_recorded
        return len(self.epochs)

    def crowd_series(self) -> List[tuple]:
        """``(crowd_size, aggregate_normalized_s)`` per normal epoch —
        the paper's Figure 4-style tracking curve."""
        return [
            (e.crowd_size, e.aggregate_normalized_s)
            for e in self.epochs
            if e.label is EpochLabel.NORMAL
        ]

    def describe(self) -> str:
        """One-line outcome like the paper's tables ("NoStop (55)")."""
        if self.outcome is StageOutcome.STOPPED:
            return str(self.stopping_crowd_size)
        if self.outcome is StageOutcome.NO_STOP:
            return f"NoStop ({self.largest_crowd})"
        return self.outcome.value


@dataclass
class MFCResult:
    """Outcome of a whole MFC experiment against one target."""

    target_name: str
    stages: Dict[str, StageResult] = field(default_factory=dict)
    live_clients: int = 0
    aborted: bool = False
    abort_reason: str = ""
    total_requests: int = 0
    started_at: float = 0.0
    ended_at: float = 0.0

    def stage(self, name: str) -> StageResult:
        """Look up a stage result by name (KeyError when absent)."""
        return self.stages[name]

    def summary(self) -> str:
        """Multi-line digest in the spirit of the paper's tables."""
        lines = [f"MFC against {self.target_name}"]
        if self.aborted:
            lines.append(f"  ABORTED: {self.abort_reason}")
            return "\n".join(lines)
        lines.append(
            f"  clients={self.live_clients}  total MFC requests={self.total_requests}"
        )
        for name, stage in self.stages.items():
            lines.append(
                f"  {name:<14} {stage.describe():<12} "
                f"({stage.epoch_count} epochs, {stage.duration_s:.0f}s)"
            )
        return "\n".join(lines)
