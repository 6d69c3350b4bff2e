"""The §5 large-scale study driver.

Runs one MFC stage against every site of a generated population and
buckets the stopping crowd sizes the way the paper's Figures 7–9 and
Tables 4–5 do: ``10-20, 20-30, 30-40, 40-50, No-Stop``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.campaign.executor import iter_campaign
from repro.campaign.spec import CampaignSpec
from repro.core.config import MFCConfig
from repro.core.records import MFCResult, StageOutcome
from repro.core.stages import StageKind
from repro.workload.fleet import FleetSpec
from repro.workload.populations import PopulationSite

#: (low, high] stopping-size buckets used across §5
STOPPING_BUCKETS = ((0, 20), (20, 30), (30, 40), (40, 50))
NO_STOP_LABEL = "No-Stop"
SKIPPED_LABEL = "Skipped"


def bucket_label(stopping_size: Optional[int]) -> str:
    """Map a stopping crowd size to its §5 bucket label."""
    if stopping_size is None:
        return NO_STOP_LABEL
    for low, high in STOPPING_BUCKETS:
        if low < stopping_size <= high:
            return f"{low}-{high}"
    # stops beyond the last bucket (cooperating-site crowds) get their
    # own catch-all so nothing is silently dropped
    return f">{STOPPING_BUCKETS[-1][1]}"


def bucket_labels(include_skipped: bool = False) -> List[str]:
    """All bucket labels in stacking order.

    Covers every label a *measured* :class:`SiteMeasurement` can land
    in: the (low, high] ranges, the ``>50`` overflow for
    cooperating-site crowds past the last bucket (omitting it here used
    to silently drop those sites from stacked §5 tables and figures)
    and ``No-Stop``.  With *include_skipped* the ``Skipped`` label is
    appended last — pair it with ``breakdown(include_skipped=True)``,
    whose denominator then covers skipped sites too.
    """
    labels = [f"{lo}-{hi}" for lo, hi in STOPPING_BUCKETS]
    labels.append(f">{STOPPING_BUCKETS[-1][1]}")
    labels.append(NO_STOP_LABEL)
    if include_skipped:
        labels.append(SKIPPED_LABEL)
    return labels


@dataclass
class SiteMeasurement:
    """One site's outcome for one stage."""

    site_id: str
    stratum: str
    outcome: StageOutcome
    stopping_size: Optional[int]

    @property
    def bucket(self) -> str:
        """The §5 bucket this measurement falls in."""
        if self.outcome is StageOutcome.SKIPPED:
            return SKIPPED_LABEL
        if self.outcome is StageOutcome.STOPPED:
            return bucket_label(self.stopping_size)
        return NO_STOP_LABEL


@dataclass
class StudyResult:
    """All measurements of one stage over one population."""

    stage: StageKind
    measurements: List[SiteMeasurement] = field(default_factory=list)

    def strata(self) -> List[str]:
        """Stratum names in first-seen order."""
        seen: List[str] = []
        for m in self.measurements:
            if m.stratum not in seen:
                seen.append(m.stratum)
        return seen

    def breakdown(
        self,
        stratum: Optional[str] = None,
        include_skipped: bool = False,
    ) -> Dict[str, float]:
        """Bucket → fraction for one stratum (or the whole population).

        By default sites whose stage was skipped (no qualifying
        object) are excluded from the denominator, matching the
        paper's per-stage site counts; *include_skipped* instead keeps
        them as a ``Skipped`` bucket over the full site count.
        """
        rows = [
            m
            for m in self.measurements
            if (stratum is None or m.stratum == stratum)
            and (include_skipped or m.outcome is not StageOutcome.SKIPPED)
        ]
        if not rows:
            return {}
        fractions: Dict[str, float] = {}
        for label in bucket_labels(include_skipped=include_skipped):
            count = sum(1 for m in rows if m.bucket == label)
            fractions[label] = count / len(rows)
        return fractions

    def fraction_stopping_at_or_below(self, crowd: int, stratum: Optional[str] = None) -> float:
        """Fraction of measured sites stopping at ≤ *crowd* requests."""
        rows = [
            m
            for m in self.measurements
            if (stratum is None or m.stratum == stratum)
            and m.outcome is not StageOutcome.SKIPPED
        ]
        if not rows:
            return 0.0
        stopped = sum(
            1
            for m in rows
            if m.outcome is StageOutcome.STOPPED
            and m.stopping_size is not None
            and m.stopping_size <= crowd
        )
        return stopped / len(rows)

    def degraded_fraction(self, stratum: Optional[str] = None) -> float:
        """Fraction of measured sites that stopped at all."""
        rows = [
            m
            for m in self.measurements
            if (stratum is None or m.stratum == stratum)
            and m.outcome is not StageOutcome.SKIPPED
        ]
        if not rows:
            return 0.0
        return sum(1 for m in rows if m.outcome is StageOutcome.STOPPED) / len(rows)

    def measured_count(self, stratum: Optional[str] = None) -> int:
        """Number of sites actually measured (stage not skipped)."""
        return sum(
            1
            for m in self.measurements
            if (stratum is None or m.stratum == stratum)
            and m.outcome is not StageOutcome.SKIPPED
        )


def _measure(site: PopulationSite, stage: StageKind, mfc_result: MFCResult) -> SiteMeasurement:
    """Map one site's experiment result to its study measurement."""
    if (
        not isinstance(mfc_result, MFCResult)  # dead-lettered job
        or mfc_result.aborted
        or stage.value not in mfc_result.stages
    ):
        return SiteMeasurement(
            site_id=site.site_id,
            stratum=site.stratum,
            outcome=StageOutcome.SKIPPED,
            stopping_size=None,
        )
    stage_result = mfc_result.stage(stage.value)
    return SiteMeasurement(
        site_id=site.site_id,
        stratum=site.stratum,
        outcome=stage_result.outcome,
        stopping_size=stage_result.stopping_crowd_size,
    )


def run_stage_study(
    sites: Sequence[PopulationSite],
    stage: StageKind,
    config: Optional[MFCConfig] = None,
    fleet_spec: Optional[FleetSpec] = None,
    seed: int = 0,
    jobs: Optional[int] = None,
    cache_path: Optional[Union[str, Path]] = None,
    progress: bool = False,
    batch: Optional[int] = None,
    job_timeout_s: Optional[float] = None,
    retries: int = 0,
) -> StudyResult:
    """Measure one stage against every site in a population.

    Each site gets its own deterministic world seeded from *seed* and
    its index, so studies parallelize trivially and re-run exactly:
    *jobs* > 1 fans the sites over worker processes (*batch* worlds
    per worker task, auto-sized by default) and returns measurements
    identical to the sequential path.  *cache_path* points the
    underlying campaign at a result-store shard directory, making an
    interrupted study resumable and repeat runs free.

    Aggregation streams: each outcome is reduced to its few-field
    :class:`SiteMeasurement` as it lands and the decoded result is
    dropped, so a 100k-site study holds measurements, not 100k full
    experiment records.
    """
    config = config if config is not None else MFCConfig()
    fleet_spec = fleet_spec if fleet_spec is not None else FleetSpec()
    spec = CampaignSpec.for_study(
        sites, stage, config=config, fleet_spec=fleet_spec, seed=seed
    )
    measurements: List[Optional[SiteMeasurement]] = [None] * len(sites)
    for outcome in iter_campaign(
        spec, jobs=jobs, store=cache_path, progress=progress, batch=batch,
        job_timeout_s=job_timeout_s, retries=retries,
    ):
        index = outcome.meta["index"]
        measurements[index] = _measure(sites[index], stage, outcome.result)
    result = StudyResult(stage=stage)
    result.measurements.extend(m for m in measurements if m is not None)
    return result
