"""Tests for the campaign engine: specs, codec, store, executor."""

import json

import pytest

from repro.campaign import (
    FULL,
    SUMMARY,
    CampaignSpec,
    JobSpec,
    ResultStore,
    decode_result,
    derive_site_seed,
    encode_result,
    run_campaign,
    stable_key,
)
from repro.analysis import run_stage_study
from repro.campaign.store import shard_index
from repro.core.config import MFCConfig
from repro.core.records import (
    ClientReport,
    EpochLabel,
    EpochResult,
    MFCResult,
    StageOutcome,
    StageResult,
)
from repro.core.stages import StageKind
from repro.server.http import Status
from repro.server.presets import qtnp_server, univ1_server
from repro.workload import generate_population
from repro.workload.fleet import FleetSpec, lan_fleet
from repro.workload.populations import RankStratumSpec
from repro.worlds import SyntheticSpec, WorldSpec


def tiny_population(n_per_stratum=2, seed=1):
    """Two extreme strata: deterministic NoStop and early-stop sites."""
    strata = [
        RankStratumSpec(
            name="fast",
            n_sites=n_per_stratum,
            head_cpu_median_s=0.0002,
            head_cpu_sigma=0.01,
        ),
        RankStratumSpec(
            name="slow",
            n_sites=n_per_stratum,
            head_cpu_median_s=0.030,
            head_cpu_sigma=0.01,
        ),
    ]
    return generate_population(strata, seed=seed)


STUDY_CONFIG = MFCConfig(min_clients=50, max_crowd=50)
STUDY_FLEET = FleetSpec(n_clients=60, unresponsive_fraction=0.0)


# -- campaign expansion -----------------------------------------------------------


def test_grid_expansion_is_deterministic():
    sites = tiny_population()

    def make():
        return [
            job
            for seed in (0, 7)
            for stage in (StageKind.BASE, StageKind.SMALL_QUERY)
            for job in CampaignSpec.for_study(
                sites, stage, fleet_spec=STUDY_FLEET, seed=seed
            ).expand()
        ]

    first, second = make(), make()
    assert len(first) == 2 * 2 * len(sites)
    assert [j.job_id for j in first] == [j.job_id for j in second]
    assert [j.key for j in first] == [j.key for j in second]
    assert [j.world.seed for j in first] == [j.world.seed for j in second]
    # all jobs distinct
    assert len({j.key for j in first}) == len(first)


def test_grid_uses_study_seeding():
    sites = tiny_population()
    spec = CampaignSpec.for_study(
        sites, StageKind.BASE, config=STUDY_CONFIG, fleet_spec=STUDY_FLEET, seed=3
    )
    jobs = spec.expand()
    assert [j.world.seed for j in jobs] == [
        derive_site_seed(3, i) for i in range(len(sites))
    ]
    assert [j.meta["site_id"] for j in jobs] == [s.site_id for s in sites]
    assert [j.meta["stratum"] for j in jobs] == [s.stratum for s in sites]


def test_explicit_linear_planner_folds_into_the_default_cell():
    """A world pinning PlannerSpec('linear') is byte-identical work to
    the planner-less world: it must share its job key, not cache the
    same simulation twice under a new key."""
    from repro.core.epochs import PlannerSpec

    def job(job_id, planner):
        world = WorldSpec(
            scenario=qtnp_server(), fleet=STUDY_FLEET, stages=("Base",),
            planner=planner,
        )
        return JobSpec.from_world(job_id, world)

    default = job("default", None)
    linear = job("linear", PlannerSpec(name="linear"))
    assert default.key == linear.key          # deduped by the executor
    assert linear.world.planner is None


def test_planner_grid_jobs_run(tmp_path):
    """Single-stage world jobs under different planners execute through
    the normal engine and each returns the requested stage."""
    from repro.core.epochs import PlannerSpec

    config = MFCConfig(max_crowd=15, crowd_step=5, initial_crowd=5, min_clients=10)
    jobs = [
        JobSpec.from_world(
            f"qtnp|ConnChurn|{name}",
            WorldSpec(
                scenario=qtnp_server(),
                fleet=FleetSpec(n_clients=20, unresponsive_fraction=0.0),
                config=config,
                stages=("ConnChurn",),
                planner=PlannerSpec(name=name),
            ),
        )
        for name in ("linear", "geometric")
    ]
    outcomes = run_campaign(
        CampaignSpec(name="planner-grid", jobs=jobs), store=tmp_path / "grid.d"
    )
    assert len(outcomes) == 2
    for outcome in outcomes:
        assert "ConnChurn" in outcome.result.stages


def test_stable_key_tracks_execution_parameters():
    def world(**overrides):
        return WorldSpec(
            **{"scenario": qtnp_server(), "stages": ("Base",), "seed": 1, **overrides}
        )

    job = JobSpec.from_world("a", world())
    same = JobSpec.from_world("b", world(), meta={"label": "differs"})
    assert job.key == same.key  # ids and meta are not execution parameters
    assert job.key != JobSpec.from_world("c", world(seed=2)).key
    assert job.key != JobSpec.from_world("d", world(config=MFCConfig(max_crowd=45))).key
    assert job.key != JobSpec.from_world("e", world(), time_limit_s=60.0).key


def test_stable_key_ignores_cosmetic_scenario_fields():
    # editing display-only text must not invalidate cached results
    import dataclasses

    scenario = qtnp_server()
    relabeled = dataclasses.replace(scenario, notes="edited annotation")
    job = JobSpec.from_world("a", WorldSpec(scenario=scenario, seed=1))
    assert JobSpec.from_world("a", WorldSpec(scenario=relabeled, seed=1)).key == job.key


def test_jobspec_payload_validation():
    with pytest.raises(ValueError):
        JobSpec(job_id="neither")
    with pytest.raises(ValueError):
        JobSpec(job_id="colonless", func="no_colon")
    with pytest.raises(ValueError):
        JobSpec(
            job_id="world+func",
            world=WorldSpec(scenario=qtnp_server()),
            func="m:f",
        )


def small_world(seed=1, max_crowd=15):
    return WorldSpec(
        scenario=qtnp_server(),
        fleet=FleetSpec(n_clients=20, unresponsive_fraction=0.0),
        config=MFCConfig(max_crowd=max_crowd, min_clients=10),
        stages=("Base",),
        seed=seed,
    )


def test_world_job_keys_track_the_spec():
    job = JobSpec.from_world("w", small_world(seed=1))
    same = JobSpec.from_world("relabeled", small_world(seed=1), meta={"x": 1})
    assert job.key == same.key  # ids and meta are not execution parameters
    assert job.key != JobSpec.from_world("w2", small_world(seed=2)).key


def test_world_jobs_run_and_cache(tmp_path):
    spec = CampaignSpec(
        name="worlds",
        jobs=[
            JobSpec.from_world(f"w{seed}", small_world(seed=seed))
            for seed in (1, 2)
        ],
    )
    outcomes = run_campaign(spec, jobs=2, store=tmp_path / "worlds.d")
    direct = [small_world(seed=seed).build().run() for seed in (1, 2)]
    assert [o.result.stage("Base").describe() for o in outcomes] == [
        r.stage("Base").describe() for r in direct
    ]
    repeat = run_campaign(spec, store=tmp_path / "worlds.d")
    assert all(o.cached for o in repeat)


def test_synthetic_world_jobs_run():
    spec = CampaignSpec(
        name="synthetic",
        jobs=[
            JobSpec.from_world(
                "linear",
                WorldSpec(
                    synthetic=SyntheticSpec(
                        model="linear", params={"seconds_per_request": 0.02}
                    ),
                    fleet=lan_fleet(15),
                    config=MFCConfig(min_clients=1, max_crowd=15, threshold_s=0.1),
                    seed=4,
                ),
            )
        ],
    )
    [outcome] = run_campaign(spec)
    stage = outcome.result.stage(StageKind.BASE.value)
    # 20 ms per simultaneous request crosses θ=100 ms inside the sweep
    assert stage.stopping_crowd_size is not None


def test_stable_key_rejects_exotic_values():
    with pytest.raises(TypeError):
        stable_key(object())


# -- codec ------------------------------------------------------------------------


def make_result():
    report = ClientReport(
        client_id="pl000",
        status=Status.OK,
        numbytes=1234.0,
        response_time_s=0.21,
        normalized_s=0.11,
    )
    epoch = EpochResult(
        index=0,
        label=EpochLabel.NORMAL,
        crowd_size=25,
        clients_used=25,
        target_time=12.5,
        reports=[report],
        aggregate_normalized_s=0.11,
        degraded=True,
        missing_reports=1,
    )
    stage = StageResult(
        stage_name=StageKind.BASE.value,
        outcome=StageOutcome.STOPPED,
        stopping_crowd_size=25,
        earliest_degraded_crowd=15,
        epochs=[epoch],
        started_at=1.0,
        ended_at=99.0,
        total_requests=75,
        reason="confirmed",
    )
    return MFCResult(
        target_name="qtnp",
        stages={stage.stage_name: stage},
        live_clients=60,
        total_requests=75,
        started_at=0.0,
        ended_at=100.0,
    )


def test_codec_full_roundtrip():
    original = make_result()
    decoded = decode_result(json.loads(json.dumps(encode_result(original, FULL))))
    assert decoded == original


def test_codec_summary_keeps_verdicts_and_describe():
    original = make_result()
    decoded = decode_result(encode_result(original, SUMMARY))
    stage = decoded.stage(StageKind.BASE.value)
    assert stage.outcome is StageOutcome.STOPPED
    assert stage.stopping_crowd_size == 25
    assert stage.earliest_degraded_crowd == 15
    assert stage.epochs == []  # summaries drop the epoch payload...
    assert stage.largest_crowd == 25  # ...but keep the tested crowd


def test_codec_nostop_describe_survives_summary():
    stage = StageResult(
        stage_name="Base",
        outcome=StageOutcome.NO_STOP,
        epochs=[
            EpochResult(
                index=i,
                label=EpochLabel.NORMAL,
                crowd_size=5 * (i + 1),
                clients_used=5,
                target_time=0.0,
            )
            for i in range(3)
        ],
    )
    result = MFCResult(target_name="site", stages={"Base": stage})
    decoded = decode_result(encode_result(result, SUMMARY)).stages["Base"]
    assert decoded.describe() == stage.describe() == "NoStop (15)"


def test_codec_plain_values_and_rejection():
    assert decode_result(encode_result([1.5, "x", None])) == [1.5, "x", None]
    with pytest.raises(TypeError):
        encode_result(object())
    with pytest.raises(ValueError):
        encode_result(make_result(), detail="everything")


# -- store ------------------------------------------------------------------------


def record(key, detail=SUMMARY, value=0):
    return {
        "key": key,
        "job_id": key,
        "meta": {},
        "detail": detail,
        "elapsed_s": 0.1,
        "result": {"kind": "value", "value": value},
    }


def test_store_roundtrip_and_torn_line(tmp_path):
    path = tmp_path / "store.d"
    store = ResultStore(path)
    store.append(record("a"))
    store.append(record("b"))
    # simulate a kill mid-append: a torn trailing line
    with store.shard_path(shard_index("c")).open("a") as fh:
        fh.write('{"key": "c", "resu')
    reloaded = ResultStore(path)
    assert len(reloaded) == 2
    assert "a" in reloaded and "b" in reloaded and "c" not in reloaded


def test_store_full_records_satisfy_summary_lookups(tmp_path):
    store = ResultStore(tmp_path / "store.d")
    store.append(record("a", detail=SUMMARY, value=1))
    assert store.get("a", SUMMARY) is not None
    assert store.get("a", FULL) is None  # summary cannot serve full
    store.append(record("a", detail=FULL, value=2))
    assert store.get("a", FULL)["result"]["value"] == 2
    # a later summary append never downgrades the full record
    store.append(record("a", detail=SUMMARY, value=3))
    assert store.get("a", FULL)["result"]["value"] == 2


# -- executor ---------------------------------------------------------------------


def test_parallel_study_matches_sequential(tmp_path):
    sites = tiny_population()
    kwargs = dict(
        config=STUDY_CONFIG, fleet_spec=STUDY_FLEET, seed=1
    )
    sequential = run_stage_study(sites, StageKind.BASE, **kwargs)
    parallel = run_stage_study(
        sites,
        StageKind.BASE,
        jobs=2,
        cache_path=tmp_path / "study.d",
        **kwargs,
    )
    assert parallel.measurements == sequential.measurements
    outcomes = {m.stratum: m.outcome for m in parallel.measurements}
    assert outcomes["fast"] is StageOutcome.NO_STOP
    assert outcomes["slow"] is StageOutcome.STOPPED


def test_campaign_resumes_from_interrupted_store(tmp_path):
    sites = tiny_population()
    spec = CampaignSpec.for_study(
        sites, StageKind.BASE, config=STUDY_CONFIG, fleet_spec=STUDY_FLEET, seed=1
    )
    first = run_campaign(spec, store=tmp_path / "full.d")
    assert [o.cached for o in first] == [False] * len(sites)

    # "kill" the campaign after two finished jobs: keep only the first
    # two committed records, as a mid-run interrupt would
    committed = {o.job.key for o in first[:2]}
    resumed_path = tmp_path / "resumed.d"
    ResultStore(resumed_path).append_batch(
        [r for r in ResultStore(tmp_path / "full.d").records() if r["key"] in committed]
    )

    resumed = run_campaign(spec, jobs=2, store=resumed_path)
    assert [o.cached for o in resumed] == [True, True, False, False]
    assert [o.result for o in resumed] == [o.result for o in first]

    # a repeat run recomputes nothing at all
    repeat = run_campaign(spec, jobs=2, store=resumed_path)
    assert all(o.cached for o in repeat)
    assert [o.result for o in repeat] == [o.result for o in first]


def test_duplicate_jobs_execute_once(tmp_path):
    job = dict(func="campaign_helpers:double", kwargs={"x": 21})
    spec = CampaignSpec(
        name="dups",
        jobs=[JobSpec(job_id="a", **job), JobSpec(job_id="b", **job)],
    )
    outcomes = run_campaign(spec, store=tmp_path / "dups.d")
    assert [o.result for o in outcomes] == [{"doubled": 42}] * 2
    assert [o.cached for o in outcomes] == [False, True]
    assert ResultStore(tmp_path / "dups.d").fsck()["totals"]["lines"] == 1


def test_callable_jobs_parallel(tmp_path):
    spec = CampaignSpec(
        name="callables",
        jobs=[
            JobSpec(
                job_id=f"double{x}",
                func="campaign_helpers:double",
                kwargs={"x": x},
            )
            for x in range(4)
        ],
    )
    outcomes = run_campaign(spec, jobs=2, store=tmp_path / "c.d")
    assert [o.result for o in outcomes] == [{"doubled": 2 * x} for x in range(4)]


def test_pool_failure_still_commits_finished_jobs(tmp_path):
    jobs = [
        JobSpec(job_id=f"good{x}", func="campaign_helpers:double", kwargs={"x": x})
        for x in (1, 2)
    ]
    jobs.append(JobSpec(job_id="boom", func="campaign_helpers:boom"))
    path = tmp_path / "partial.d"
    with pytest.raises(RuntimeError, match="job failure propagates"):
        run_campaign(CampaignSpec(name="partial", jobs=jobs), jobs=2, store=path)
    # the two healthy jobs finished and were committed before the
    # failure propagated: a resume would re-run only the broken one
    reloaded = ResultStore(path)
    assert len(reloaded) == 2
    assert all(j.key in reloaded for j in jobs[:2])


def test_job_errors_propagate():
    spec = CampaignSpec(
        name="boom", jobs=[JobSpec(job_id="boom", func="campaign_helpers:boom")]
    )
    with pytest.raises(RuntimeError, match="job failure propagates"):
        run_campaign(spec)
    with pytest.raises(RuntimeError, match="job failure propagates"):
        run_campaign(
            CampaignSpec(name="boom2", jobs=spec.jobs * 2), jobs=2
        )
