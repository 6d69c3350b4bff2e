"""Hardened measurement pipeline: partial commits and inference
downgrades.

The contract under test is the paper's validity rule made structural:
a damaged stage keeps everything it observed (never a bare ABORTED
that ate its epochs), and a stage whose sample is too thin, too noisy
or cap-truncated reports *inconclusive* — explicitly not a guess —
rather than a confident verdict.
"""

import pytest

from repro.core.config import MFCConfig
from repro.core.coordinator import Coordinator
from repro.core.inference import (
    ATTRITION_INCONCLUSIVE,
    NOISE_INCONCLUSIVE,
    Provisioning,
    infer_constraints,
)
from repro.core.records import MFCResult, StageOutcome, StageResult
from repro.workload.fleet import FleetSpec
from repro.worlds import SCENARIO_PRESETS, WorldSpec

SMALL_CONFIG = MFCConfig(max_crowd=15, crowd_step=5, initial_crowd=5, min_clients=10)
SMALL_FLEET = FleetSpec(n_clients=20, unresponsive_fraction=0.0)


def run_small_world():
    return WorldSpec(
        scenario=SCENARIO_PRESETS["lab"](),
        fleet=SMALL_FLEET,
        config=SMALL_CONFIG,
        seed=5,
        stages=("Base",),
    ).build().run()


def wrap(stage: StageResult) -> MFCResult:
    return MFCResult(target_name="t", stages={stage.stage_name: stage})


def nostop(**kwargs) -> StageResult:
    return StageResult(
        stage_name="Base",
        outcome=StageOutcome.NO_STOP,
        max_crowd_tested=50,
        **kwargs,
    )


# -- mid-stage failure keeps partial epochs ---------------------------------------


def test_stage_exception_commits_partial_epochs(monkeypatch):
    original = Coordinator._run_epoch
    calls = {"n": 0}

    def exploding(self, *args, **kwargs):
        calls["n"] += 1
        if calls["n"] >= 2:
            raise RuntimeError("injected epoch failure")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Coordinator, "_run_epoch", exploding)
    result = run_small_world()
    stage = result.stage("Base")
    assert stage.outcome is StageOutcome.ABORTED
    # the first epoch survived the crash of the second
    assert len(stage.epochs) == 1
    assert "injected epoch failure" in stage.reason
    assert "1 epochs committed" in stage.reason
    # the experiment as a whole carried on and still timed the stage
    assert not result.aborted
    assert stage.ended_at >= stage.started_at
    assert infer_constraints(result).verdict_for("Base") is Provisioning.UNKNOWN


# -- inference downgrades ---------------------------------------------------------


def test_clean_stages_keep_their_verdicts():
    assert (
        infer_constraints(wrap(nostop())).verdict_for("Base")
        is Provisioning.ADEQUATE
    )
    stopped = StageResult(
        stage_name="Base",
        outcome=StageOutcome.STOPPED,
        stopping_crowd_size=25,
        max_crowd_tested=30,
    )
    assert (
        infer_constraints(wrap(stopped)).verdict_for("Base")
        is Provisioning.CONSTRAINED
    )


@pytest.mark.parametrize(
    "annotations,needle",
    [
        (
            {"max_missing_fraction": ATTRITION_INCONCLUSIVE},
            "lost",
        ),
        (
            {"signal_noise_fraction": NOISE_INCONCLUSIVE},
            "noise",
        ),
        (
            {"truncated_crowd_cap": 20},
            "attrition cut the feasible crowd",
        ),
    ],
)
def test_annotations_downgrade_to_inconclusive(annotations, needle):
    report = infer_constraints(wrap(nostop(**annotations)))
    assert report.verdict_for("Base") is Provisioning.INCONCLUSIVE
    assert any(needle in d for d in report.diagnoses), report.diagnoses


def test_downgrade_thresholds_are_not_hair_triggers():
    below = nostop(
        max_missing_fraction=ATTRITION_INCONCLUSIVE * 0.9,
        signal_noise_fraction=NOISE_INCONCLUSIVE * 0.9,
    )
    assert infer_constraints(wrap(below)).verdict_for("Base") is (
        Provisioning.ADEQUATE
    )


def test_truncated_cap_does_not_taint_a_confirmed_stop():
    # a confirmed stop is evidence regardless of where the cap ended up
    stopped = StageResult(
        stage_name="Base",
        outcome=StageOutcome.STOPPED,
        stopping_crowd_size=25,
        max_crowd_tested=30,
        truncated_crowd_cap=30,
    )
    assert (
        infer_constraints(wrap(stopped)).verdict_for("Base")
        is Provisioning.CONSTRAINED
    )


def test_clean_hardened_run_leaves_annotations_at_zero():
    import dataclasses

    config = dataclasses.replace(SMALL_CONFIG, hardening=True)
    result = WorldSpec(
        scenario=SCENARIO_PRESETS["lab"](),
        fleet=SMALL_FLEET,
        config=config,
        seed=5,
        stages=("Base",),
    ).build().run()
    stage = result.stage("Base")
    assert stage.invalid_epochs == 0
    assert stage.quarantined_clients == 0
    assert stage.truncated_crowd_cap is None
