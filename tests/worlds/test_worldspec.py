"""Tests for the declarative world layer: spec, codec, registries."""

import json
import random

import pytest

from repro.campaign.codec import encode_result
from repro.core.config import MFCConfig
from repro.core.stages import DEFAULT_STAGE_NAMES, StageKind
from repro.server.presets import qtnp_server
from repro.workload.fleet import FleetSpec, lan_fleet
from repro.worlds import (
    FLEET_PRESETS,
    SCENARIO_PRESETS,
    SYNTHETIC_MODELS,
    SyntheticSpec,
    WorldSpec,
    codec,
)

SMALL_CONFIG = MFCConfig(max_crowd=15, crowd_step=5, initial_crowd=5, min_clients=10)
SMALL_FLEET = FleetSpec(n_clients=20, unresponsive_fraction=0.0)


def fingerprint(result) -> str:
    """Full-detail canonical encoding — byte-identical results only."""
    return json.dumps(
        encode_result(result, detail="full"), sort_keys=True, separators=(",", ":")
    )


# -- round-trips over every shipped preset ----------------------------------------


@pytest.mark.parametrize("name", sorted(SCENARIO_PRESETS))
def test_every_preset_roundtrips_with_stable_hash(name):
    """encode→decode preserves the spec hash and still builds."""
    spec = WorldSpec(
        scenario=SCENARIO_PRESETS[name](),
        fleet=SMALL_FLEET,
        config=SMALL_CONFIG,
        seed=7,
        stages=("Base",),
    )
    decoded = WorldSpec.from_json(spec.to_json())
    assert decoded.spec_hash == spec.spec_hash
    runner = decoded.build()
    assert runner.world_spec is decoded
    assert [s.name for s in runner.stages] == ["Base"]
    # cosmetic annotations survive the dump but never touch the hash
    assert decoded.scenario.notes == spec.scenario.notes


@pytest.mark.parametrize("name", ["qtnp", "univ1", "budget-vps"])
def test_preset_roundtrip_preserves_result_fingerprint(name):
    """A decoded spec's world produces byte-identical results."""
    spec = WorldSpec(
        scenario=SCENARIO_PRESETS[name](),
        fleet=SMALL_FLEET,
        config=SMALL_CONFIG,
        seed=3,
        stages=("Base",),
    )
    decoded = WorldSpec.from_json(spec.to_json())
    assert fingerprint(decoded.build().run()) == fingerprint(spec.build().run())


def test_property_roundtrip_hash_stability():
    """Seeded property sweep: random fleet/config knobs always
    round-trip encode→decode with an unchanged spec hash."""
    rng = random.Random(20260726)
    presets = sorted(SCENARIO_PRESETS)
    all_stages = list(DEFAULT_STAGE_NAMES)
    for _ in range(25):
        fleet = FleetSpec(
            n_clients=rng.randint(5, 80),
            rtt_range=(rng.uniform(0.001, 0.05), rng.uniform(0.06, 0.4)),
            access_bps_choices=tuple(
                rng.choice([1.25e6, 12.5e6, 125e6]) for _ in range(rng.randint(1, 3))
            ),
            unresponsive_fraction=rng.uniform(0.0, 0.5),
            spike_node_fraction=rng.uniform(0.0, 0.5),
            bottleneck_group=rng.choice([None, "transit"]),
            bottleneck_fraction=0.0,
        )
        config = MFCConfig(
            threshold_s=rng.uniform(0.05, 0.5),
            max_crowd=rng.randint(20, 150),
            crowd_step=rng.randint(1, 10),
            initial_crowd=rng.randint(1, 10),
            min_clients=rng.randint(1, 50),
            requests_per_client=rng.randint(1, 4),
            stagger_interval_s=rng.choice([None, 0.1]),
        )
        names = tuple(rng.sample(all_stages, rng.randint(1, len(all_stages))))
        spec = WorldSpec(
            scenario=SCENARIO_PRESETS[rng.choice(presets)](),
            fleet=fleet,
            config=config,
            seed=rng.randint(0, 2**31),
            stages=names,
            control_loss_prob=rng.uniform(0.0, 0.2),
            use_naive_scheduling=rng.random() < 0.5,
            bottleneck_capacity_bps=(
                rng.uniform(1e6, 1e8) if fleet.bottleneck_group else None
            ),
            background_rps=rng.choice([None, rng.uniform(0.0, 5.0)]),
            notes=f"draw {_}",
        )
        decoded = WorldSpec.from_json(spec.to_json())
        assert decoded.spec_hash == spec.spec_hash


# -- pluggable stages / planner ----------------------------------------------------


def test_document_missing_fields_decodes_to_defaults():
    """Every field is encoded, defaults included; a hand-written
    document may still leave defaults out and decode to the same
    world (and the same hash)."""
    spec = WorldSpec(
        scenario=SCENARIO_PRESETS["qtnp"](), fleet=SMALL_FLEET, config=SMALL_CONFIG
    )
    doc = json.loads(spec.to_json())
    assert doc["stages"] is None and doc["planner"] is None
    assert doc["config"]["hardening"] is None
    del doc["stages"], doc["planner"]
    decoded = codec.decode(doc)
    assert decoded.stages is None and decoded.planner is None
    assert decoded.spec_hash == spec.spec_hash


def test_stages_and_planner_roundtrip_with_stable_hash():
    from repro.core.epochs import BisectKnee, PlannerSpec

    spec = WorldSpec(
        scenario=SCENARIO_PRESETS["qtnp"](),
        fleet=SMALL_FLEET,
        config=SMALL_CONFIG,
        seed=4,
        stages=("Upload", "CacheBust", "ConnChurn"),
        planner=PlannerSpec(name="bisect", params={"growth_factor": 3.0}),
    )
    decoded = WorldSpec.from_json(spec.to_json())
    assert decoded.spec_hash == spec.spec_hash
    assert decoded.stages == ("Upload", "CacheBust", "ConnChurn")
    assert decoded.planner.name == "bisect"
    assert decoded.planner.params == {"growth_factor": 3.0}
    runner = decoded.build()
    assert [s.name for s in runner.stages] == ["Upload", "CacheBust", "ConnChurn"]
    planner = runner.coordinator.planner.make(SMALL_CONFIG)
    assert isinstance(planner, BisectKnee)
    assert planner.growth_factor == 3.0


def test_stages_and_planner_change_the_hash():
    from repro.core.epochs import PlannerSpec

    base = WorldSpec(scenario=qtnp_server(), seed=1)
    assert (
        WorldSpec(scenario=qtnp_server(), seed=1, stages=("Base",)).spec_hash
        != base.spec_hash
    )
    assert (
        WorldSpec(
            scenario=qtnp_server(), seed=1, planner=PlannerSpec(name="geometric")
        ).spec_hash
        != base.spec_hash
    )


def test_explicit_default_planner_folds_to_none():
    """`--planner linear` is byte-identical to the default, so it must
    hash (and cache) identically: the spec normalizes an explicit
    default-linear PlannerSpec away."""
    from repro.core.epochs import PlannerSpec

    base = WorldSpec(scenario=qtnp_server(), seed=1)
    explicit = WorldSpec(
        scenario=qtnp_server(), seed=1, planner=PlannerSpec(name="linear")
    )
    assert explicit.planner is None
    assert explicit.spec_hash == base.spec_hash
    # a parameterized linear planner is NOT the default (unknown params
    # are rejected at validation, but the hash must still distinguish)
    kept = WorldSpec(
        scenario=qtnp_server(),
        seed=1,
        planner=PlannerSpec(name="geometric", params={"factor": 1.5}),
    )
    assert kept.planner is not None


def test_specs_are_frozen_so_a_memoised_hash_never_goes_stale():
    """The codec memoises ``spec_hash`` on the instance, so a spec that
    could be edited after hashing would keep the old key and be served
    another world's cached result."""
    import dataclasses

    spec = WorldSpec(scenario=qtnp_server(), seed=1)
    key = spec.spec_hash
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.seed = 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.scenario.background_rps = 5.0
    assert spec.spec_hash == key == WorldSpec(scenario=qtnp_server(), seed=1).spec_hash
    assert dataclasses.replace(spec, seed=2).spec_hash == (
        WorldSpec(scenario=qtnp_server(), seed=2).spec_hash
    )


def test_new_stage_world_runs_and_infers():
    from repro.core.inference import infer_constraints

    spec = WorldSpec(
        scenario=SCENARIO_PRESETS["qtnp"](),
        fleet=SMALL_FLEET,
        config=SMALL_CONFIG,
        seed=2,
        stages=("ConnChurn",),
    )
    result = spec.build().run()
    assert "ConnChurn" in result.stages
    report = infer_constraints(result)
    assert "connection handling (accept/FD)" in report.summary()
    # intrusiveness accounting counts every churn connection: 4 per
    # base measurement and 4 per commanded crowd slot
    stage = result.stage("ConnChurn")
    expected = 4 * (result.live_clients + sum(e.crowd_size for e in stage.epochs))
    assert stage.total_requests == expected


def test_decoding_a_stage_kinds_document_fails():
    """Stage selection is by registry name only: a document still
    carrying the removed ``stage_kinds`` field fails loudly."""
    doc = json.loads(WorldSpec(scenario=qtnp_server()).to_json())
    doc["stage_kinds"] = [{"__enum__": "StageKind", "value": "Base"}]
    with pytest.raises(
        ValueError, match=r"unknown field\(s\) for WorldSpec: stage_kinds"
    ):
        codec.decode(doc)


def test_unknown_stage_name_rejected_at_validation():
    spec = WorldSpec(scenario=qtnp_server(), stages=("Warp",))
    with pytest.raises(ValueError, match="unknown probe stage"):
        spec.build()


def test_unknown_planner_rejected_at_validation():
    from repro.core.epochs import PlannerSpec

    spec = WorldSpec(scenario=qtnp_server(), planner=PlannerSpec(name="oracle"))
    with pytest.raises(ValueError, match="unknown planner"):
        spec.build()


def test_synthetic_world_rejects_named_stages_but_takes_planner():
    from repro.core.epochs import BisectKnee, PlannerSpec

    rejected = WorldSpec(
        synthetic=SyntheticSpec(
            model="linear", params={"seconds_per_request": 0.01}
        ),
        fleet=lan_fleet(5),
        stages=("Base",),
    )
    with pytest.raises(ValueError, match="stages"):
        rejected.build()
    accepted = WorldSpec(
        synthetic=SyntheticSpec(
            model="step", params={"threshold": 10, "low_s": 0.0, "high_s": 0.5}
        ),
        fleet=lan_fleet(15),
        config=MFCConfig(min_clients=1, max_crowd=15, threshold_s=0.1),
        planner=PlannerSpec(name="bisect"),
        seed=5,
    )
    runner = accepted.build()
    assert isinstance(
        runner.coordinator.planner.make(accepted.config), BisectKnee
    )
    result = runner.run()
    assert result.stage(StageKind.BASE.value).stopping_crowd_size is not None


# -- identity semantics -----------------------------------------------------------


def test_hash_ignores_cosmetic_fields():
    spec = WorldSpec(scenario=qtnp_server(), notes="a")
    relabeled = WorldSpec(scenario=qtnp_server(), notes="b")
    assert spec.spec_hash == relabeled.spec_hash


def test_hash_tracks_execution_parameters():
    base = WorldSpec(scenario=qtnp_server(), seed=1)
    assert base.spec_hash != WorldSpec(scenario=qtnp_server(), seed=2).spec_hash
    assert (
        base.spec_hash
        != WorldSpec(
            scenario=qtnp_server(), seed=1, config=MFCConfig(max_crowd=45)
        ).spec_hash
    )
    assert (
        base.spec_hash
        != WorldSpec(
            scenario=qtnp_server(), seed=1, stages=("Base",)
        ).spec_hash
    )


# -- synthetic worlds -------------------------------------------------------------


def test_synthetic_world_roundtrip_and_run():
    spec = WorldSpec(
        synthetic=SyntheticSpec(
            model="step", params={"threshold": 10, "low_s": 0.0, "high_s": 0.5}
        ),
        fleet=lan_fleet(15),
        config=MFCConfig(min_clients=1, max_crowd=15, threshold_s=0.1),
        seed=5,
    )
    decoded = WorldSpec.from_json(spec.to_json())
    assert decoded.spec_hash == spec.spec_hash
    result = decoded.build().run()
    stage = result.stage(StageKind.BASE.value)
    # the step model's cliff sits inside the sweep: the stage stops
    assert stage.stopping_crowd_size is not None
    assert fingerprint(result) == fingerprint(spec.build().run())


def test_synthetic_registry_names_all_shipped_models():
    assert {"linear", "exponential", "step", "transient-busy"} <= set(
        SYNTHETIC_MODELS
    )
    assert set(FLEET_PRESETS) >= {"planetlab", "lan"}


def test_synthetic_spec_rejects_unknown_model():
    spec = WorldSpec(
        synthetic=SyntheticSpec(model="quadratic"), fleet=lan_fleet(5)
    )
    with pytest.raises(ValueError, match="unknown synthetic model"):
        spec.build()


# -- validation -------------------------------------------------------------------


def test_world_needs_exactly_one_server_side():
    with pytest.raises(ValueError, match="exactly one"):
        WorldSpec().build()
    with pytest.raises(ValueError, match="exactly one"):
        WorldSpec(
            scenario=qtnp_server(), synthetic=SyntheticSpec(model="linear")
        ).build()


def test_synthetic_world_rejects_scenario_only_knobs():
    spec = WorldSpec(
        synthetic=SyntheticSpec(model="linear", params={"seconds_per_request": 0.01}),
        monitor_interval_s=1.0,
    )
    with pytest.raises(ValueError, match="monitor_interval_s"):
        spec.build()


def test_from_json_rejects_non_world_documents():
    with pytest.raises(ValueError, match="WorldSpec"):
        WorldSpec.from_json(codec.dumps(qtnp_server()))


def test_decode_rejects_unknown_tags():
    with pytest.raises(ValueError, match="unknown spec dataclass"):
        codec.decode({"__dc__": "Exploit"})
    with pytest.raises(ValueError, match="unknown spec enum"):
        codec.decode({"__enum__": "Mystery", "value": 1})


def test_decode_rejects_typoed_field_names():
    """A hand-edited document with a misspelled field must fail loudly
    instead of silently running a different world."""
    doc = json.loads(WorldSpec(scenario=qtnp_server(), seed=7).to_json())
    doc["sede"] = 9
    del doc["seed"]
    with pytest.raises(ValueError, match="unknown field.*sede"):
        codec.decode(doc)
    # knobs that left MFCConfig (hardening constants, the config-level
    # crowd mode) are typos too: an old document must not decode into
    # a world that silently ignores them
    for name, value in (
        ("reliveness_every_epochs", 1),
        ("stage_timeout_s", None),
        ("crowd_mode", "exact"),
    ):
        doc = json.loads(WorldSpec(scenario=qtnp_server(), seed=7).to_json())
        doc["config"][name] = value
        with pytest.raises(ValueError, match=rf"unknown field\(s\) for MFCConfig: {name}"):
            codec.decode(doc)


@pytest.mark.parametrize(
    "field,value",
    [
        ("fleet", FleetSpec(n_clients=7)),
        ("config", MFCConfig(max_crowd=30)),
        ("control_loss_prob", 0.2),
        ("monitor_interval_s", 1.0),
        ("use_naive_scheduling", True),
        ("bottleneck_capacity_bps", 40e6),
        ("crowd_mode", "cohort"),
    ],
)
def test_indicator_world_rejects_fields_it_never_reads(field, value):
    """An indicator world runs one probe node against the scenario: a
    crowd-side field would enter the spec hash without changing a byte
    of the result, so it must be refused instead."""
    spec = WorldSpec(
        scenario=qtnp_server(), seed=3, indicator=True, **{field: value}
    )
    with pytest.raises(ValueError, match=rf"unsupported: \['{field}'\]"):
        spec.validate()


def test_synthetic_world_rejects_cohort_crowds():
    spec = WorldSpec(
        synthetic=SyntheticSpec(model="linear", params={"seconds_per_request": 0.01}),
        crowd_mode="cohort",
    )
    with pytest.raises(ValueError, match="crowd_mode"):
        spec.validate()


def test_exact_crowd_mode_is_the_default_identity():
    assert WorldSpec(crowd_mode="exact").crowd_mode is None
    assert WorldSpec(crowd_mode="exact").spec_hash == WorldSpec().spec_hash
    world = WorldSpec(scenario=qtnp_server(), seed=5)
    assert WorldSpec(
        scenario=qtnp_server(), seed=5, crowd_mode="exact"
    ).spec_hash == world.spec_hash


def test_synthetic_world_rejects_fleet_bottleneck():
    """Synthetic topologies carry no shared bottleneck links, so a
    bottleneck-group fleet must be rejected up front (it would
    otherwise fail seed-dependently or silently drop the bottleneck)."""
    spec = WorldSpec(
        synthetic=SyntheticSpec(model="linear", params={"seconds_per_request": 0.01}),
        fleet=FleetSpec(
            n_clients=10, bottleneck_group="transit", bottleneck_fraction=0.5
        ),
    )
    with pytest.raises(ValueError, match="bottleneck_group"):
        spec.build()
