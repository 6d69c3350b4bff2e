"""Tests for constraint inference, the profiler and records."""

import pytest

from repro.content.site import SiteContentBuilder, minimal_site
from repro.core.inference import (
    Provisioning,
    infer_constraints,
    subsystem_for,
)
from repro.core.profiler import ProfilerSettings, profile_site
from repro.core.records import (
    EpochLabel,
    EpochResult,
    MFCResult,
    StageOutcome,
    StageResult,
)
from repro.core.stages import STAGES, StageKind, standard_stages
from repro.server.http import Method

import random


def stage_result(name, outcome, stopping=None):
    return StageResult(
        stage_name=name,
        outcome=outcome,
        stopping_crowd_size=stopping,
        started_at=0.0,
        ended_at=100.0,
    )


def result_with(base=None, query=None, large=None):
    result = MFCResult(target_name="t", live_clients=60)
    if base:
        result.stages[StageKind.BASE.value] = base
    if query:
        result.stages[StageKind.SMALL_QUERY.value] = query
    if large:
        result.stages[StageKind.LARGE_OBJECT.value] = large
    return result


# -- inference -------------------------------------------------------------------


def test_verdicts_map_outcomes():
    result = result_with(
        base=stage_result("Base", StageOutcome.STOPPED, 20),
        query=stage_result("SmallQuery", StageOutcome.NO_STOP),
        large=stage_result("LargeObject", StageOutcome.SKIPPED),
    )
    report = infer_constraints(result)
    assert report.verdict_for("Base") is Provisioning.CONSTRAINED
    assert report.verdict_for("SmallQuery") is Provisioning.ADEQUATE
    assert report.verdict_for("LargeObject") is Provisioning.UNKNOWN


def test_univ3_video_diagnosis():
    """Base stops, Large Object doesn't → request handling verdict."""
    result = result_with(
        base=stage_result("Base", StageOutcome.STOPPED, 90),
        large=stage_result("LargeObject", StageOutcome.NO_STOP),
    )
    report = infer_constraints(result)
    assert any("request handling, not access bandwidth" in d for d in report.diagnoses)


def test_ddos_backend_diagnosis():
    result = result_with(
        query=stage_result("SmallQuery", StageOutcome.STOPPED, 30),
        large=stage_result("LargeObject", StageOutcome.NO_STOP),
    )
    report = infer_constraints(result)
    assert any("application-level DDoS" in d for d in report.diagnoses)


def test_univ2_serialization_diagnosis():
    result = result_with(
        base=stage_result("Base", StageOutcome.STOPPED, 150),
        query=stage_result("SmallQuery", StageOutcome.STOPPED, 130),
        large=stage_result("LargeObject", StageOutcome.STOPPED, 110),
    )
    report = infer_constraints(result)
    assert any("serialization" in d for d in report.diagnoses)


def test_no_serialization_diagnosis_when_sizes_differ():
    result = result_with(
        base=stage_result("Base", StageOutcome.STOPPED, 20),
        query=stage_result("SmallQuery", StageOutcome.STOPPED, 130),
        large=stage_result("LargeObject", StageOutcome.STOPPED, 110),
    )
    report = infer_constraints(result)
    assert not any("serialization" in d for d in report.diagnoses)


def test_ddos_order_most_vulnerable_first():
    result = result_with(
        base=stage_result("Base", StageOutcome.STOPPED, 50),
        query=stage_result("SmallQuery", StageOutcome.STOPPED, 10),
        large=stage_result("LargeObject", StageOutcome.NO_STOP),
    )
    report = infer_constraints(result)
    assert report.ddos_vulnerability_order[0] == "back-end data processing"
    assert "network access bandwidth" not in report.ddos_vulnerability_order


def test_aborted_result_reported():
    result = MFCResult(target_name="t", aborted=True, abort_reason="only 12 clients")
    report = infer_constraints(result)
    assert any("aborted" in d for d in report.diagnoses)
    assert "aborted" in report.summary() or "12 clients" in report.summary()


def test_summary_renders_all_parts():
    result = result_with(
        base=stage_result("Base", StageOutcome.STOPPED, 20),
        large=stage_result("LargeObject", StageOutcome.NO_STOP),
    )
    text = infer_constraints(result).summary()
    assert "http request handling" in text
    assert "stops at 20" in text
    assert "no stop observed" in text


# -- verdict branches, incl. the new stage→resource mappings -----------------------


@pytest.mark.parametrize("outcome,expected", [
    (StageOutcome.STOPPED, Provisioning.CONSTRAINED),
    (StageOutcome.NO_STOP, Provisioning.ADEQUATE),
    (StageOutcome.SKIPPED, Provisioning.UNKNOWN),
    (StageOutcome.ABORTED, Provisioning.UNKNOWN),
])
def test_every_outcome_maps_to_a_verdict(outcome, expected):
    result = MFCResult(target_name="t", live_clients=60)
    stopping = 20 if outcome is StageOutcome.STOPPED else None
    result.stages["Base"] = stage_result("Base", outcome, stopping)
    report = infer_constraints(result)
    assert report.verdict_for("Base") is expected
    assert report.stopping_sizes["Base"] == stopping


def test_unmeasured_stage_is_unknown():
    report = infer_constraints(MFCResult(target_name="t", live_clients=60))
    assert report.verdict_for("Base") is Provisioning.UNKNOWN


def test_new_stages_produce_verdicts_with_registry_resources():
    result = MFCResult(target_name="t", live_clients=60)
    result.stages["Upload"] = stage_result("Upload", StageOutcome.STOPPED, 15)
    result.stages["ConnChurn"] = stage_result("ConnChurn", StageOutcome.NO_STOP)
    result.stages["CacheBust"] = stage_result("CacheBust", StageOutcome.STOPPED, 30)
    report = infer_constraints(result)
    assert report.verdict_for("Upload") is Provisioning.CONSTRAINED
    assert report.verdict_for("ConnChurn") is Provisioning.ADEQUATE
    assert report.verdict_for("CacheBust") is Provisioning.CONSTRAINED
    text = report.summary()
    assert "back-end write path" in text
    assert "connection handling (accept/FD)" in text
    assert "storage (disk) subsystem" in text
    # DDoS ranking speaks sub-system language for new stages too
    assert report.ddos_vulnerability_order[0] == "back-end write path"


def test_subsystem_mapping_comes_from_the_registry():
    assert subsystem_for("Base") == "http request handling"
    assert subsystem_for("Upload") == "back-end write path"
    assert subsystem_for("SomethingCustom") == "SomethingCustom"
    assert subsystem_for("CacheBust") == "storage (disk) subsystem"
    assert subsystem_for("ConnChurn") == "connection handling (accept/FD)"


def test_subsystem_table_sees_late_registered_stages(monkeypatch):
    """The mapping reads the live registry, not an import-time
    snapshot: a stage registered afterwards appears."""
    from repro.core.stages import STAGES, ProbeStage
    from repro.server.http import Method

    monkeypatch.setitem(
        STAGES,
        "LateStage",
        ProbeStage("LateStage", "late resource", Method.GET, 0.5,
                   source="base-page"),
    )
    assert STAGES["LateStage"].resource == "late resource"
    assert subsystem_for("LateStage") == "late resource"


def test_cache_bust_vs_large_object_diagnosis():
    result = result_with(
        large=stage_result("LargeObject", StageOutcome.NO_STOP),
    )
    result.stages["CacheBust"] = stage_result("CacheBust", StageOutcome.STOPPED, 25)
    report = infer_constraints(result)
    assert any("storage subsystem" in d for d in report.diagnoses)


def test_conn_churn_vs_base_diagnosis():
    result = result_with(
        base=stage_result("Base", StageOutcome.NO_STOP),
    )
    result.stages["ConnChurn"] = stage_result("ConnChurn", StageOutcome.STOPPED, 20)
    report = infer_constraints(result)
    assert any("accept/FD path" in d for d in report.diagnoses)


def test_upload_vs_small_query_diagnosis():
    result = result_with(
        query=stage_result("SmallQuery", StageOutcome.NO_STOP),
    )
    result.stages["Upload"] = stage_result("Upload", StageOutcome.STOPPED, 10)
    report = infer_constraints(result)
    assert any("write path" in d for d in report.diagnoses)


def test_new_diagnoses_silent_without_their_stages():
    """Three-stage paper runs must read exactly as before."""
    result = result_with(
        base=stage_result("Base", StageOutcome.STOPPED, 20),
        query=stage_result("SmallQuery", StageOutcome.NO_STOP),
        large=stage_result("LargeObject", StageOutcome.NO_STOP),
    )
    report = infer_constraints(result)
    for diagnosis in report.diagnoses:
        assert "write path" not in diagnosis
        assert "accept/FD" not in diagnosis
        assert "storage subsystem" not in diagnosis


# -- records -----------------------------------------------------------------------


def test_stage_describe_formats():
    stopped = stage_result("Base", StageOutcome.STOPPED, 25)
    assert stopped.describe() == "25"
    nostop = stage_result("Base", StageOutcome.NO_STOP)
    nostop.epochs.append(
        EpochResult(
            index=1, label=EpochLabel.NORMAL, crowd_size=55,
            clients_used=55, target_time=0.0,
        )
    )
    assert nostop.describe() == "NoStop (55)"
    assert stage_result("x", StageOutcome.SKIPPED).describe() == "skipped"


def test_mfc_result_summary():
    result = result_with(base=stage_result("Base", StageOutcome.STOPPED, 25))
    text = result.summary()
    assert "Base" in text and "25" in text


def test_mfc_result_aborted_summary():
    result = MFCResult(target_name="t", aborted=True, abort_reason="too few")
    assert "ABORTED" in result.summary()


# -- stages / profiler -----------------------------------------------------------


def test_standard_stages_full_site():
    profile = profile_site(minimal_site())
    stages = standard_stages(profile)
    assert [s.name for s in stages] == [
        StageKind.BASE.value,
        StageKind.SMALL_QUERY.value,
        StageKind.LARGE_OBJECT.value,
    ]


def test_base_stage_head_method():
    profile = profile_site(minimal_site())
    base = STAGES[StageKind.BASE.value].plan(profile)
    assert base.method is Method.HEAD
    assert base.degradation_quantile == 0.5
    assert base.object_for(0) == profile.base_page


def test_large_object_stage_same_object_for_all():
    profile = profile_site(minimal_site())
    stage = STAGES[StageKind.LARGE_OBJECT.value].plan(profile)
    assert stage.degradation_quantile == 0.9
    assert stage.object_for(0) == stage.object_for(17)


def test_small_query_unique_assignment():
    profile = profile_site(minimal_site(n_unique_queries=10))
    stage = STAGES[StageKind.SMALL_QUERY.value].plan(profile)
    paths = {stage.object_for(i) for i in range(10)}
    assert len(paths) == 10


def test_stage_skipped_without_objects():
    profile = profile_site(minimal_site(large_object_bytes=10_000))
    assert STAGES[StageKind.LARGE_OBJECT.value].plan(profile) is None


def test_profile_site_respects_budget():
    site = SiteContentBuilder(rng=random.Random(1)).build()
    profile = profile_site(site, ProfilerSettings(max_objects=5, max_depth=2))
    total = sum(len(v) for v in profile.by_class.values())
    assert total <= 5


def test_profiler_settings_validation():
    with pytest.raises(ValueError):
        profile_site(minimal_site(), ProfilerSettings(max_objects=0))
