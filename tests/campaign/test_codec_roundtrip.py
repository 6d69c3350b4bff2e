"""JSON round-trip tests for the result records the campaign store keeps.

Stage results are keyed by *stage name* — including post-paper
registry stages like "Upload" — so these round-trips are what keeps
cached campaign records decodable and byte-stable across releases.
"""

import dataclasses
import json

import pytest

from repro.campaign.codec import FULL, SUMMARY, decode_result, encode_result
from repro.core.records import (
    ClientReport,
    EpochLabel,
    EpochResult,
    MFCResult,
    StageOutcome,
    StageResult,
)
from repro.server.http import Status


def make_epoch(index=1, crowd=15, label=EpochLabel.NORMAL):
    return EpochResult(
        index=index,
        label=label,
        crowd_size=crowd,
        clients_used=crowd,
        target_time=12.25,
        reports=[
            ClientReport(
                client_id=f"c{i:02d}",
                status=Status.OK if i % 3 else Status.CLIENT_TIMEOUT,
                numbytes=150_000.0 / (i + 1),
                response_time_s=0.125 * (i + 1),
                normalized_s=0.01 * i - 0.003,
            )
            for i in range(crowd)
        ],
        aggregate_normalized_s=0.0875,
        degraded=crowd >= 15,
        missing_reports=2,
    )


def make_stage(name, outcome=StageOutcome.STOPPED, stopping=20):
    return StageResult(
        stage_name=name,
        outcome=outcome,
        stopping_crowd_size=stopping if outcome is StageOutcome.STOPPED else None,
        earliest_degraded_crowd=10,
        epochs=[
            make_epoch(1, 10),
            make_epoch(2, 15),
            make_epoch(3, 14, EpochLabel.CHECK_MINUS),
        ],
        started_at=3.5,
        ended_at=167.875,
        total_requests=39,
        reason="check phase confirmed degradation",
    )


#: one result covering paper and registry-named stages alike
STAGE_NAMES = ("Base", "SmallQuery", "LargeObject", "Upload", "ConnChurn",
               "CacheBust")


def make_result():
    result = MFCResult(
        target_name="qtnp",
        live_clients=55,
        total_requests=234,
        started_at=0.0,
        ended_at=1234.5,
    )
    outcomes = [StageOutcome.STOPPED, StageOutcome.NO_STOP, StageOutcome.SKIPPED]
    for i, name in enumerate(STAGE_NAMES):
        result.stages[name] = make_stage(name, outcomes[i % 3], stopping=20 + i)
    return result


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# -- MFCResult -------------------------------------------------------------------


def test_full_roundtrip_preserves_every_field():
    result = make_result()
    decoded = decode_result(encode_result(result, detail=FULL))
    assert isinstance(decoded, MFCResult)
    assert list(decoded.stages) == list(STAGE_NAMES)
    for name in STAGE_NAMES:
        original, restored = result.stage(name), decoded.stage(name)
        assert restored.stage_name == name
        assert restored.outcome is original.outcome
        assert restored.stopping_crowd_size == original.stopping_crowd_size
        assert restored.earliest_degraded_crowd == original.earliest_degraded_crowd
        assert restored.reason == original.reason
        assert len(restored.epochs) == len(original.epochs)
        for a, b in zip(original.epochs, restored.epochs):
            assert b.label is a.label
            assert b.crowd_size == a.crowd_size
            assert b.aggregate_normalized_s == a.aggregate_normalized_s
            assert [dataclasses.asdict(r) for r in b.reports] == [
                dataclasses.asdict(r) for r in a.reports
            ]
    # the whole document is byte-stable through a decode→encode cycle
    assert canonical(encode_result(decoded, detail=FULL)) == canonical(
        encode_result(result, detail=FULL)
    )


def test_full_roundtrip_is_json_serializable():
    text = json.dumps(encode_result(make_result(), detail=FULL))
    decoded = decode_result(json.loads(text))
    assert decoded.stage("Upload").epoch_count == 3


def test_summary_roundtrip_keeps_verdict_fields():
    result = make_result()
    decoded = decode_result(encode_result(result, detail=SUMMARY))
    assert list(decoded.stages) == list(STAGE_NAMES)
    stage = decoded.stage("Base")
    assert stage.epochs == []                       # detail dropped
    assert stage.epoch_count == 3                   # ... but derived stats pinned
    assert stage.largest_crowd == 15
    assert stage.outcome is StageOutcome.STOPPED
    assert stage.describe() == result.stage("Base").describe()


def test_summary_describe_matches_full_for_nostop():
    result = make_result()
    full = decode_result(encode_result(result, detail=FULL))
    summary = decode_result(encode_result(result, detail=SUMMARY))
    for name in STAGE_NAMES:
        assert summary.stage(name).describe() == full.stage(name).describe()


def test_aborted_result_roundtrips():
    result = MFCResult(
        target_name="t", aborted=True, abort_reason="only 12 live clients"
    )
    for detail in (SUMMARY, FULL):
        decoded = decode_result(encode_result(result, detail=detail))
        assert decoded.aborted
        assert decoded.abort_reason == "only 12 live clients"


# -- bare StageResult (callable-job payloads) ------------------------------------


def test_float_fidelity_through_json_text():
    """Response times survive repr-round-tripping exactly (the
    determinism-parity property the caches rely on)."""
    stage = make_stage("Base")
    awkward = 0.1 + 0.2  # 0.30000000000000004
    object.__setattr__(stage.epochs[0].reports[0], "normalized_s", awkward)
    result = MFCResult(target_name="site", stages={"Base": stage})
    text = json.dumps(encode_result(result, detail=FULL))
    decoded = decode_result(json.loads(text)).stages["Base"]
    assert decoded.epochs[0].reports[0].normalized_s == awkward


def test_unknown_record_kind_rejected():
    with pytest.raises(ValueError, match="unknown stored result kind"):
        decode_result({"kind": "mystery"})


def test_indicator_result_roundtrips():
    from repro.core.indicator import IndicatorFeatures, IndicatorResult

    result = IndicatorResult(
        target_name="qtnp",
        features=IndicatorFeatures(
            rtt_s=0.012,
            base_latency_s=0.0885,
            base_jitter_s=0.0039,
            query_fresh_s=0.091,
            query_repeat_s=0.0907,
            query_bytes=240.0,
            n_query_paths=3,
            large_head_s=0.0898,
            large_get_s=0.2832,
            large_bytes=1_048_576.0,
            bust_get_s=0.2926,
        ),
        total_requests=14,
        started_at=1.0,
        ended_at=3.25,
    )
    text = json.dumps(encode_result(result))
    decoded = decode_result(json.loads(text))
    assert decoded == result
