"""Two-phase triage engine: classifier, spot planner, harness, resume.

The triage pipeline promises that the near-free indicator sweep never
silently drops a real constraint: every registry scenario must keep
recall >= 0.9 for its true constraint class, and an interrupted triage
campaign must resume across the phase-1 -> phase-2 boundary without
changing a single record.
"""

import dataclasses
import json
import os

import golden_worlds
import pytest

from repro.campaign.executor import (
    DEFAULT_STAGE_COUNT,
    INDICATOR_JOB_COST,
    PLANNER_COST_FACTOR,
    estimate_job_cost,
)
from repro.campaign.codec import SUMMARY
from repro.campaign.spec import JobSpec
from repro.campaign.store import ResultStore
from repro.campaign.triage import (
    indicator_world,
    plan_triage_jobs,
    run_triage,
    score_indicator,
    targeted_probe_plan,
)
from repro.core.config import MFCConfig
from repro.core.epochs import BisectKnee, PlannerSpec
from repro.core.indicator import IndicatorFeatures, IndicatorResult
from repro.core.inference import classify_indicator
from repro.core.records import EpochLabel, EpochResult, StageOutcome
from repro.workload import generate_population
from repro.workload.fleet import FleetSpec
from repro.workload.populations import startup_population
from repro.worlds import codec as worlds_codec
from repro.worlds.registry import SCENARIO_PRESETS
from repro.worlds.spec import WorldSpec

RTT = 0.010
CONFIG = MFCConfig(threshold_s=0.100, max_crowd=50, min_clients=10)


def make_indicator(
    front_s=0.0,
    jitter_s=0.001,
    query_repeat_s=None,
    large_excess_s=None,
):
    """Synthetic indicator result with controlled serialized costs.

    ``front_s`` is the desired base service time (on top of the 2*RTT
    handshake the classifier subtracts); bytes are kept tiny so the
    slow-start floor stays negligible.
    """
    base = 2.0 * RTT + front_s
    features = IndicatorFeatures(
        rtt_s=RTT,
        base_latency_s=base,
        base_jitter_s=jitter_s,
        query_fresh_s=None if query_repeat_s is None else base + query_repeat_s,
        query_repeat_s=None if query_repeat_s is None else base + query_repeat_s,
        query_bytes=None if query_repeat_s is None else 200.0,
        n_query_paths=0 if query_repeat_s is None else 3,
        large_head_s=None if large_excess_s is None else base,
        large_get_s=None if large_excess_s is None else base + large_excess_s,
        large_bytes=None if large_excess_s is None else 500.0,
    )
    return IndicatorResult(
        target_name="synthetic", features=features, total_requests=13
    )


# -- classifier --------------------------------------------------------------


def test_fast_site_is_clean_everywhere():
    verdict = classify_indicator(make_indicator(front_s=0.0), config=CONFIG)
    assert verdict.label == "clean"
    assert verdict.probe_stages == ()
    assert verdict.stage_flags["Base"] == "clean"


def test_slow_front_end_flags_base_with_prediction():
    # S = 10ms, quantile 0.5: knee ~ 0.1 / (0.5 * 0.01) = 20 <= cap
    verdict = classify_indicator(make_indicator(front_s=0.010), config=CONFIG)
    assert verdict.label == "confident"
    assert verdict.stage_flags["Base"] == "flagged"
    assert verdict.predicted_stops["Base"] == pytest.approx(20, abs=1)
    assert "Base" in verdict.probe_stages
    assert verdict.constraint is not None


def test_trusted_overcap_estimate_is_watch_only():
    # S = 2.5ms: knee ~ 80, inside (cap, 2*cap] -> ambiguous but the
    # direct measurement is trusted: no active probe
    verdict = classify_indicator(make_indicator(front_s=0.0025), config=CONFIG)
    assert verdict.stage_flags["Base"] == "ambiguous"
    assert "Base" not in verdict.probe_stages


def test_jitter_makes_ambiguity_structural_and_probed():
    verdict = classify_indicator(
        make_indicator(front_s=0.0025, jitter_s=0.200), config=CONFIG
    )
    assert verdict.stage_flags["Base"] == "ambiguous"
    assert "Base" in verdict.probe_stages


def test_deferred_large_object_couples_on_strong_flag():
    # excess ~ 0: bandwidth invisible to the unloaded probe.  A strong
    # Base flag (knee 10 <= 0.3 * 50) drags LargeObject onto the probe
    # list; a weak one (knee 40) leaves it clean.
    strong = classify_indicator(
        make_indicator(front_s=0.020, large_excess_s=0.0002), config=CONFIG
    )
    assert strong.stage_flags["LargeObject"] == "ambiguous"
    assert "LargeObject" in strong.probe_stages

    weak = classify_indicator(
        make_indicator(front_s=0.005, large_excess_s=0.0002), config=CONFIG
    )
    assert weak.stage_flags["LargeObject"] == "clean"
    assert "LargeObject" not in weak.probe_stages


# -- spot-check planner ------------------------------------------------------


def spot_config(initial):
    return MFCConfig(
        threshold_s=0.100,
        max_crowd=50,
        initial_crowd=initial,
        crowd_step=5,
        min_clients=10,
        check_phase=False,
    )


def make_epoch(crowd, degraded, aggregate):
    return EpochResult(
        index=1,
        label=EpochLabel.NORMAL,
        crowd_size=crowd,
        clients_used=crowd,
        target_time=1.0,
        reports=[],
        aggregate_normalized_s=aggregate,
        degraded=degraded,
        missing_reports=0,
    )


def test_cold_spot_refutes_in_one_epoch():
    planner = BisectKnee(spot_config(25), spot=True)
    crowd, _label = planner.next_epoch()
    assert crowd == 25
    planner.record(make_epoch(25, degraded=False, aggregate=0.010))
    assert planner.finished
    assert planner.outcome is StageOutcome.NO_STOP
    assert "spot check" in planner.reason


def test_warm_spot_keeps_probing():
    planner = BisectKnee(spot_config(25), spot=True)
    planner.next_epoch()
    # clean but at 60% of the threshold: a just-undershot prediction
    planner.record(make_epoch(25, degraded=False, aggregate=0.060))
    assert not planner.finished
    crowd, _label = planner.next_epoch()
    assert crowd > 25


def test_degraded_spot_descends_to_knee_hint():
    planner = BisectKnee(spot_config(25), spot=True, knee_hint=20)
    planner.next_epoch()
    planner.record(make_epoch(25, degraded=True, aggregate=0.400))
    crowd, _label = planner.next_epoch()
    assert crowd == 15  # hint - step, not the blind midpoint 12
    planner.record(make_epoch(15, degraded=False, aggregate=0.010))
    crowd, _label = planner.next_epoch()
    assert crowd == 20
    planner.record(make_epoch(20, degraded=True, aggregate=0.400))
    assert planner.finished
    assert planner.outcome is StageOutcome.STOPPED
    assert planner.stopping_crowd_size == 20


def test_plain_bisect_ignores_spot_semantics():
    planner = BisectKnee(spot_config(5))
    planner.next_epoch()
    planner.record(make_epoch(5, degraded=False, aggregate=0.010))
    assert not planner.finished  # a cold first epoch just grows


def test_planner_spec_accepts_spot_params():
    spec = PlannerSpec(
        name="bisect", params={"spot": True, "knee_hint": 20}
    )
    spec.validate()
    planner = spec.make(spot_config(25))
    assert planner.spot and planner.knee_hint == 20


# -- probe shaping -----------------------------------------------------------


def test_targeted_probe_plan_shapes_flagged_and_structural():
    verdict = classify_indicator(
        make_indicator(front_s=0.020, large_excess_s=0.0002), config=CONFIG
    )
    plans = {stage: (cfg, planner)
             for stage, cfg, planner in targeted_probe_plan(verdict, CONFIG)}
    base_cfg, base_planner = plans["Base"]
    assert base_planner.params["spot"] is True
    assert base_planner.params["knee_hint"] == verdict.predicted_stops["Base"]
    assert base_cfg.initial_crowd == max(
        CONFIG.min_significant_crowd,
        verdict.predicted_stops["Base"] + CONFIG.crowd_step,
    )
    assert not base_cfg.check_phase

    lo_cfg, lo_planner = plans["LargeObject"]
    assert "spot" not in lo_planner.params  # refutation leap from the cap
    assert lo_cfg.initial_crowd == CONFIG.max_crowd
    assert lo_cfg.requests_per_client == 2  # bandwidth stays undistorted


# -- registry precision/recall harness ---------------------------------------


def test_registry_recall_at_least_090_per_scenario():
    scenarios = [(name, factory()) for name, factory in SCENARIO_PRESETS.items()]
    report = score_indicator(scenarios, seed=3, jobs=4)
    for row in report["scenarios"]:
        assert row["recall"] >= 0.9, (
            f"{row['scenario']}: recall {row['recall']} "
            f"(true={row['true_constrained']}, predicted={row['predicted']})"
        )
    assert report["recall"] >= 0.9


# -- resume across the phase boundary ----------------------------------------


def triage_fixture_sites():
    return [
        ("qtnp", SCENARIO_PRESETS["qtnp"]()),
        ("lab", SCENARIO_PRESETS["lab"]()),
        ("univ1", SCENARIO_PRESETS["univ1"]()),
    ]


def test_resume_after_kill_spans_phase_boundary(tmp_path):
    config = MFCConfig(threshold_s=0.100, max_crowd=30, min_clients=10)
    fleet = FleetSpec(n_clients=40)
    kwargs = dict(config=config, fleet_spec=fleet, seed=3)

    baseline = run_triage(triage_fixture_sites(), **kwargs)
    cache = tmp_path / "triage.d"
    first = run_triage(triage_fixture_sites(), store=str(cache), **kwargs)
    assert first == baseline

    # inject a kill that tears one record from each phase: the resumed
    # run must recompute exactly those and join them with the cached
    # remainder without changing any record
    dropped = {"indicator-result": False, "mfc-result": False}
    for path in ResultStore(cache).shard_paths():
        lines = path.read_text().splitlines(keepends=True)
        kept = []
        for line in lines:
            kind = json.loads(line)["result"]["kind"]
            if kind in dropped and not dropped[kind]:
                dropped[kind] = True
                continue
            kept.append(line)
        path.write_text("".join(kept))
    assert all(dropped.values()), "fixture must cover both phases"

    resumed = run_triage(triage_fixture_sites(), store=str(cache), **kwargs)
    # records stream in landing order, which a resume reshuffles
    def by_site(records):
        return sorted(records, key=lambda r: r.site_id)

    assert by_site(resumed) == by_site(baseline)


def test_rerun_with_another_fleet_and_threshold_reuses_the_indicator_sweep(tmp_path):
    """An indicator world reads only its site, seed and background, so
    its job key carries no fleet or config: rerunning a survey with
    another fleet and θ recomputes phase 2 only."""
    sites = generate_population(startup_population(scale=0.1), seed=0)
    assert len(sites) == 11
    cache = tmp_path / "triage.d"
    run_triage(
        sites, store=str(cache), seed=0,
        config=MFCConfig(max_crowd=50, min_clients=45),
        fleet_spec=FleetSpec(n_clients=60, unresponsive_fraction=0.05),
    )
    store = ResultStore(cache)
    phase1 = [job.key for job in plan_triage_jobs(sites, seed=0)]
    assert store.missing(phase1, SUMMARY) == []
    before = {record["key"] for record in store.records()}

    run_triage(
        sites, store=str(cache), seed=0,
        config=MFCConfig(threshold_s=0.150, max_crowd=50, min_clients=45),
        fleet_spec=FleetSpec(n_clients=70, unresponsive_fraction=0.05),
    )
    added = [r for r in ResultStore(cache).records() if r["key"] not in before]
    assert added
    assert {r["result"]["kind"] for r in added} == {"mfc-result"}


# -- satellite units: cost model and canonical-form memo ---------------------


def world_for_cost(planner=None, stages=("Base", "SmallQuery", "LargeObject")):
    return WorldSpec(
        scenario=SCENARIO_PRESETS["lab"](),
        fleet=FleetSpec(n_clients=60),
        config=MFCConfig(max_crowd=50, min_clients=10),
        seed=1,
        stages=tuple(stages),
        planner=planner,
    )


def test_job_cost_folds_planner_and_stage_count():
    linear = estimate_job_cost(JobSpec.from_world("a", world_for_cost()))
    bisect = estimate_job_cost(
        JobSpec.from_world("b", world_for_cost(PlannerSpec(name="bisect")))
    )
    assert bisect == pytest.approx(linear * PLANNER_COST_FACTOR["bisect"])
    one_stage = estimate_job_cost(
        JobSpec.from_world("c", world_for_cost(stages=("Base",)))
    )
    assert one_stage == pytest.approx(linear / DEFAULT_STAGE_COUNT)


def test_job_cost_folds_crowd_mode_and_hardening():
    from dataclasses import replace

    from repro.campaign.executor import (
        COHORT_COST_FACTOR,
        HARDENED_COST_FACTOR,
    )

    base = world_for_cost()
    exact = estimate_job_cost(JobSpec.from_world("a", base))
    cohort = estimate_job_cost(
        JobSpec.from_world("b", replace(base, crowd_mode="cohort"))
    )
    assert cohort == pytest.approx(exact * COHORT_COST_FACTOR)
    hardened = estimate_job_cost(
        JobSpec.from_world(
            "c",
            replace(base, config=replace(base.config, hardening=True)),
        )
    )
    assert hardened == pytest.approx(exact * HARDENED_COST_FACTOR)
    # a fault plan hardens the coordinator by default, so it pays the
    # surcharge; pinning hardening off runs the unhardened coordinator
    # over the same faults, so it must not
    from repro.faults.spec import FAULT_PRESETS

    faulted = replace(base, faults=FAULT_PRESETS["dropout"]())
    assert estimate_job_cost(JobSpec.from_world("d", faulted)) == pytest.approx(
        exact * HARDENED_COST_FACTOR
    )
    unhardened = replace(faulted, config=replace(base.config, hardening=False))
    assert not unhardened.hardened
    assert estimate_job_cost(JobSpec.from_world("e", unhardened)) == pytest.approx(exact)


def test_indicator_jobs_cost_a_flat_handful():
    world = indicator_world(world_for_cost())
    assert estimate_job_cost(
        JobSpec.from_world("i", world)
    ) == INDICATOR_JOB_COST


def test_canonical_encoding_is_memoized_per_spec():
    world = world_for_cost()
    key_first = worlds_codec.stable_key(world)
    assert "_stable_key_memo" in world.__dict__
    assert "_canonical_memo" in world.__dict__
    memo_doc = world.__dict__["_canonical_memo"]
    assert worlds_codec.stable_key(world) == key_first
    # the second call reused the cached canonical document
    assert world.__dict__["_canonical_memo"] is memo_doc
    # an equal-but-distinct spec hashes identically without the memo
    assert worlds_codec.stable_key(world_for_cost()) == key_first


# -- request savings on the recorded populations ------------------------------
#
# Deterministic for fixed seeds, so pinned exactly: arm A is full MFC
# with the default stage roster on every site, arm B the indicator
# sweep plus targeted active probes (see golden_worlds.triage_survey).


def test_triage_savings_counts_on_the_quick_population():
    survey = golden_worlds.triage_survey(scale=0.05)
    assert survey["sites"] == 24
    assert (survey["requests_full"], survey["requests_triage"]) == (19_656, 4_443)
    assert (survey["caught"], survey["missed"], survey["extra"]) == (25, 2, 0)


@pytest.mark.skipif(
    not os.environ.get("REPRO_PARITY_FULL"),
    reason="the 200-site survey only runs with REPRO_PARITY_FULL=1",
)
def test_triage_savings_counts_on_the_full_population():
    survey = golden_worlds.triage_survey(scale=0.41)
    assert survey["sites"] == 200
    assert (survey["requests_full"], survey["requests_triage"]) == (165_377, 31_241)
    assert (survey["caught"], survey["missed"], survey["extra"]) == (183, 30, 9)
    # the acceptance bar: at least 5x fewer requests than full MFC
    assert survey["requests_full"] / survey["requests_triage"] >= 5.0
