"""Parallel experiment campaigns with a resumable result cache.

The §5 study and every population benchmark are grids of fully
independent, deterministic MFC worlds.  This package turns such grids
into *campaigns*:

- :mod:`repro.campaign.spec` — declarative grids expanded into
  :class:`JobSpec` entries (world / callable payloads) with
  stable SHA-256 job keys hashed by :mod:`repro.worlds.codec`;
- :mod:`repro.campaign.executor` — a process-pool executor with a
  byte-identical sequential fallback;
- :mod:`repro.campaign.store` — an append-only, sharded JSONL result
  store, so interrupted campaigns resume without recomputation and
  repeated benchmark runs hit cache;
- :mod:`repro.campaign.codec` — JSON round-tripping of experiment
  records at ``summary`` or ``full`` (epoch-level) detail;
- :mod:`repro.campaign.progress` — progress/ETA reporting.
"""

from repro.campaign.codec import FULL, SUMMARY, decode_result, encode_result
from repro.campaign.executor import (
    JobOutcome,
    auto_batch_size,
    estimate_job_cost,
    execute_job,
    iter_campaign,
    run_campaign,
)
from repro.campaign.progress import ProgressReporter
from repro.campaign.spec import (
    SEED_STRIDE,
    CampaignSpec,
    JobSpec,
    derive_site_seed,
    stable_key,
)
from repro.campaign.store import ResultStore
from repro.campaign.triage import (
    TriageRecord,
    indicator_world,
    iter_triage,
    plan_triage_jobs,
    run_triage,
    score_indicator,
    targeted_probe_plan,
)

__all__ = [
    "FULL",
    "SUMMARY",
    "SEED_STRIDE",
    "CampaignSpec",
    "JobOutcome",
    "JobSpec",
    "ProgressReporter",
    "ResultStore",
    "TriageRecord",
    "auto_batch_size",
    "decode_result",
    "derive_site_seed",
    "encode_result",
    "estimate_job_cost",
    "execute_job",
    "indicator_world",
    "iter_campaign",
    "iter_triage",
    "plan_triage_jobs",
    "run_campaign",
    "run_triage",
    "score_indicator",
    "stable_key",
    "targeted_probe_plan",
]
