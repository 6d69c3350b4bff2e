"""JSON codec for campaign job results.

The result store keeps one JSON document per finished job.  Four
result shapes are supported:

- :class:`~repro.core.records.MFCResult` (MFC world jobs),
- :class:`~repro.core.indicator.IndicatorResult` (phase-1 triage
  jobs: the unloaded indicator pass),
- :class:`DeadLetter` (a job that exhausted its timeout/retry budget),
- any plain JSON-able value (callable jobs returning derived data,
  e.g. the synchronization ablation's arrival offsets).

Two detail levels trade storage for fidelity: ``"summary"`` keeps the
per-stage verdicts (outcome, stopping sizes, timings) that the §5
studies and the constraint-inference report consume; ``"full"`` also
keeps every epoch and client report, so analyses that read raw epochs
(the ablation harnesses) survive a cache round-trip.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Union

from repro.core.indicator import IndicatorFeatures, IndicatorResult
from repro.core.records import (
    ClientReport,
    EpochLabel,
    EpochResult,
    MFCResult,
    StageOutcome,
    StageResult,
)
from repro.server.http import Status

SUMMARY = "summary"
FULL = "full"
_DETAILS = (SUMMARY, FULL)


@dataclasses.dataclass(frozen=True)
class DeadLetter:
    """Terminal failure record for one campaign job.

    Committed to the :class:`~repro.campaign.store.ResultStore` in
    place of a result when a job exhausts its timeout/retry budget, so
    a poison job can never hang or wedge a campaign: the campaign
    completes, the failure is queryable, and a resume serves it from
    cache instead of hanging again.
    """

    job_id: str
    #: "timeout" (wall-clock watchdog fired) or "error" (the job raised)
    reason: str
    #: repr of the terminal exception
    error: str = ""
    #: total attempts made (1 = no retry)
    attempts: int = 1
    elapsed_s: float = 0.0


def _encode_report(report: ClientReport) -> List:
    return [
        report.client_id,
        report.status.value,
        report.numbytes,
        report.response_time_s,
        report.normalized_s,
    ]


def _decode_report(row: List) -> ClientReport:
    client_id, status, numbytes, response_time_s, normalized_s = row
    return ClientReport(
        client_id=client_id,
        status=Status(status),
        numbytes=numbytes,
        response_time_s=response_time_s,
        normalized_s=normalized_s,
    )


def _encode_epoch(epoch: EpochResult) -> Dict:
    return {
        "index": epoch.index,
        "label": epoch.label.value,
        "crowd_size": epoch.crowd_size,
        "clients_used": epoch.clients_used,
        "target_time": epoch.target_time,
        "aggregate_normalized_s": epoch.aggregate_normalized_s,
        "degraded": epoch.degraded,
        "missing_reports": epoch.missing_reports,
        "reports": [_encode_report(r) for r in epoch.reports],
    }


def _decode_epoch(doc: Dict) -> EpochResult:
    return EpochResult(
        index=doc["index"],
        label=EpochLabel(doc["label"]),
        crowd_size=doc["crowd_size"],
        clients_used=doc["clients_used"],
        target_time=doc["target_time"],
        reports=[_decode_report(r) for r in doc["reports"]],
        aggregate_normalized_s=doc["aggregate_normalized_s"],
        degraded=doc["degraded"],
        missing_reports=doc["missing_reports"],
    )


def _encode_stage(stage: StageResult, detail: str) -> Dict:
    doc = {
        "stage_name": stage.stage_name,
        "outcome": stage.outcome.value,
        "stopping_crowd_size": stage.stopping_crowd_size,
        "earliest_degraded_crowd": stage.earliest_degraded_crowd,
        "started_at": stage.started_at,
        "ended_at": stage.ended_at,
        "total_requests": stage.total_requests,
        "reason": stage.reason,
        "n_epochs": stage.epoch_count,
        "max_crowd_tested": stage.largest_crowd,
    }
    # hardening annotations: emitted only when set, so every encoding
    # of a legacy (unhardened) stage — including the frozen perf
    # fingerprints, which hash full-detail documents — is byte-stable
    if stage.invalid_epochs:
        doc["invalid_epochs"] = stage.invalid_epochs
    if stage.quarantined_clients:
        doc["quarantined_clients"] = stage.quarantined_clients
    if stage.max_missing_fraction:
        doc["max_missing_fraction"] = stage.max_missing_fraction
    if stage.truncated_crowd_cap is not None:
        doc["truncated_crowd_cap"] = stage.truncated_crowd_cap
    if stage.signal_noise_fraction:
        doc["signal_noise_fraction"] = stage.signal_noise_fraction
    if detail == FULL:
        doc["epochs"] = [_encode_epoch(e) for e in stage.epochs]
    return doc


def _decode_stage(doc: Dict) -> StageResult:
    epochs = [_decode_epoch(e) for e in doc.get("epochs", [])]
    return StageResult(
        stage_name=doc["stage_name"],
        outcome=StageOutcome(doc["outcome"]),
        stopping_crowd_size=doc["stopping_crowd_size"],
        earliest_degraded_crowd=doc["earliest_degraded_crowd"],
        epochs=epochs,
        started_at=doc["started_at"],
        ended_at=doc["ended_at"],
        total_requests=doc["total_requests"],
        reason=doc["reason"],
        # with the epochs present these are derivable; pin them only
        # for summary records whose epoch list was dropped
        max_crowd_tested=None if epochs else doc["max_crowd_tested"],
        n_epochs_recorded=None if epochs else doc["n_epochs"],
        invalid_epochs=doc.get("invalid_epochs", 0),
        quarantined_clients=doc.get("quarantined_clients", 0),
        max_missing_fraction=doc.get("max_missing_fraction", 0.0),
        truncated_crowd_cap=doc.get("truncated_crowd_cap"),
        signal_noise_fraction=doc.get("signal_noise_fraction", 0.0),
    )


def encode_result(value: Union[MFCResult, object], detail: str = SUMMARY) -> Dict:
    """Encode a job's return value into a storable JSON document."""
    if detail not in _DETAILS:
        raise ValueError(f"detail must be one of {_DETAILS}: {detail!r}")
    if isinstance(value, MFCResult):
        return {
            "kind": "mfc-result",
            "target_name": value.target_name,
            "stages": {
                name: _encode_stage(stage, detail)
                for name, stage in value.stages.items()
            },
            "live_clients": value.live_clients,
            "aborted": value.aborted,
            "abort_reason": value.abort_reason,
            "total_requests": value.total_requests,
            "started_at": value.started_at,
            "ended_at": value.ended_at,
        }
    if isinstance(value, DeadLetter):
        return {
            "kind": "dead-letter",
            "job_id": value.job_id,
            "reason": value.reason,
            "error": value.error,
            "attempts": value.attempts,
            "elapsed_s": value.elapsed_s,
        }
    if isinstance(value, IndicatorResult):
        return {
            "kind": "indicator-result",
            "target_name": value.target_name,
            "features": dataclasses.asdict(value.features),
            "total_requests": value.total_requests,
            "started_at": value.started_at,
            "ended_at": value.ended_at,
        }
    # anything else must already be JSON-able
    try:
        json.dumps(value)
    except TypeError as exc:
        raise TypeError(
            f"job returned a non-storable {type(value).__name__}; return an "
            "MFCResult or plain JSON-able data"
        ) from exc
    return {"kind": "value", "value": value}


def decode_result(doc: Dict) -> Union[MFCResult, object]:
    """Rebuild the stored value (records become real dataclasses)."""
    kind = doc["kind"]
    if kind == "mfc-result":
        return MFCResult(
            target_name=doc["target_name"],
            stages={
                name: _decode_stage(stage) for name, stage in doc["stages"].items()
            },
            live_clients=doc["live_clients"],
            aborted=doc["aborted"],
            abort_reason=doc["abort_reason"],
            total_requests=doc["total_requests"],
            started_at=doc["started_at"],
            ended_at=doc["ended_at"],
        )
    if kind == "dead-letter":
        return DeadLetter(
            job_id=doc["job_id"],
            reason=doc["reason"],
            error=doc.get("error", ""),
            attempts=doc.get("attempts", 1),
            elapsed_s=doc.get("elapsed_s", 0.0),
        )
    if kind == "indicator-result":
        return IndicatorResult(
            target_name=doc["target_name"],
            features=IndicatorFeatures(**doc["features"]),
            total_requests=doc["total_requests"],
            started_at=doc["started_at"],
            ended_at=doc["ended_at"],
        )
    if kind == "value":
        return doc["value"]
    raise ValueError(f"unknown stored result kind: {kind!r}")
