"""Fault-plan declarations: validation, presets, codec round trips."""

import pytest

from repro.core.config import MFCConfig
from repro.faults.spec import (
    FAULT_KINDS,
    FAULT_PRESETS,
    FaultEvent,
    FaultSpec,
    fault_spec_from_names,
)
from repro.workload.fleet import FleetSpec
from repro.worlds import SCENARIO_PRESETS, WorldSpec

SMALL_CONFIG = MFCConfig(max_crowd=15, crowd_step=5, initial_crowd=5, min_clients=10)
SMALL_FLEET = FleetSpec(n_clients=20, unresponsive_fraction=0.0)


def small_world(faults=None, seed=7):
    return WorldSpec(
        scenario=SCENARIO_PRESETS["lab"](),
        fleet=SMALL_FLEET,
        config=SMALL_CONFIG,
        seed=seed,
        faults=faults,
    )


# -- event/plan validation --------------------------------------------------------


def test_event_validation_rejects_bad_shapes():
    good = FaultEvent(kind="blackhole", start_s=1.0, duration_s=5.0)
    good.validate()
    cases = [
        dict(kind="meteor-strike", start_s=0.0, duration_s=1.0),
        dict(kind="blackhole", start_s=-1.0, duration_s=1.0),
        dict(kind="blackhole", start_s=0.0, duration_s=0.0),
        dict(kind="blackhole", start_s=0.0, duration_s=1.0, fraction=0.0),
        dict(kind="blackhole", start_s=0.0, duration_s=1.0, fraction=1.5),
        dict(kind="blackhole", start_s=0.0, duration_s=1.0, prob=0.0),
        dict(kind="stall", start_s=0.0, duration_s=1.0),  # delay_s missing
        dict(kind="latency-storm", start_s=0.0, duration_s=1.0, factor=1.0),
        dict(kind="bandwidth-flap", start_s=0.0, duration_s=1.0, factor=0.5),
        # server-wide kinds are not client-scoped
        dict(kind="server-crash", start_s=0.0, duration_s=1.0, fraction=0.5),
    ]
    for kwargs in cases:
        with pytest.raises(ValueError):
            FaultEvent(**kwargs).validate()


def test_event_window_arithmetic():
    event = FaultEvent(kind="blackhole", start_s=10.0, duration_s=5.0)
    assert event.end_s == 15.0
    assert not event.active_at(9.999)
    assert event.active_at(10.0)
    assert event.active_at(14.999)
    assert not event.active_at(15.0)


def test_empty_plan_is_invalid():
    with pytest.raises(ValueError):
        FaultSpec(events=()).validate()


def test_every_preset_validates():
    for name, factory in FAULT_PRESETS.items():
        spec = factory()
        spec.validate()
        assert all(e.kind in FAULT_KINDS for e in spec.events), name


def test_named_plans_merge_in_order():
    merged = fault_spec_from_names(["stall", "crash"])
    kinds = [e.kind for e in merged.events]
    assert kinds == ["stall", "server-crash"]


def test_unknown_preset_name_is_an_error():
    with pytest.raises(ValueError, match="unknown fault preset"):
        fault_spec_from_names(["stall", "gremlins"])


# -- codec and hash stability -----------------------------------------------------


def test_fault_free_hash_unchanged_by_the_fault_field():
    # an explicit faults=None is the fault-free world
    assert small_world().spec_hash == small_world(faults=None).spec_hash


def test_fault_plan_rides_the_spec_through_json():
    spec = small_world(faults=fault_spec_from_names(["stall", "report-loss"]))
    decoded = WorldSpec.from_json(spec.to_json())
    assert decoded.spec_hash == spec.spec_hash
    assert decoded.faults == spec.faults
    assert [e.kind for e in decoded.faults.events] == ["stall", "report-loss"]


def test_fault_plan_changes_the_spec_hash():
    clean = small_world()
    faulted = small_world(faults=FAULT_PRESETS["dropout"]())
    assert clean.spec_hash != faulted.spec_hash
    # and different plans hash differently
    other = small_world(faults=FAULT_PRESETS["crash"]())
    assert faulted.spec_hash != other.spec_hash


def test_invalid_plan_rejected_by_spec_validation():
    spec = small_world(
        faults=FaultSpec(
            events=(FaultEvent(kind="nonsense", start_s=0.0, duration_s=1.0),)
        )
    )
    with pytest.raises(ValueError, match="unknown fault kind"):
        spec.validate()


def test_faults_rejected_on_worlds_without_a_coordinator():
    plan = FAULT_PRESETS["crash"]()
    with pytest.raises(ValueError, match="indicator"):
        WorldSpec(
            scenario=SCENARIO_PRESETS["lab"](),
            fleet=SMALL_FLEET,
            config=SMALL_CONFIG,
            indicator=True,
            faults=plan,
        ).validate()
