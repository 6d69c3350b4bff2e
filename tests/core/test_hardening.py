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
from repro.core.hardening import EPOCH_RETRY_LIMIT, Hardened, HardeningPolicy, Verdict
from repro.core.inference import (
    ATTRITION_INCONCLUSIVE,
    NOISE_INCONCLUSIVE,
    Provisioning,
    infer_constraints,
)
from repro.core.records import (
    ClientReport,
    EpochLabel,
    EpochResult,
    MFCResult,
    StageOutcome,
    StageResult,
)
from repro.core.scheduler import DelayEstimates
from repro.core.stages import StagePlan
from repro.server.http import Method, Status
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


# -- the policy seam ---------------------------------------------------------------


def count_probes(monkeypatch):
    calls = []
    original = Coordinator._probe

    def counted(self, clients):
        calls.append(len(clients))
        return original(self, clients)

    monkeypatch.setattr(Coordinator, "_probe", counted)
    return calls


def test_unhardened_world_probes_liveness_once_at_registration(monkeypatch):
    calls = count_probes(monkeypatch)
    result = run_small_world()
    assert result.stage("Base").epochs
    assert calls == [SMALL_FLEET.n_clients]


def test_hardened_world_reprobes_through_the_same_probe(monkeypatch):
    import dataclasses

    calls = count_probes(monkeypatch)
    WorldSpec(
        scenario=SCENARIO_PRESETS["lab"](),
        fleet=SMALL_FLEET,
        config=dataclasses.replace(SMALL_CONFIG, hardening=True),
        seed=5,
        stages=("Base",),
    ).build().run()
    # registration, stage start, then one re-liveness per accepted epoch
    assert len(calls) > 2


# -- Hardened admission on crafted epochs -------------------------------------------

ADMIT_CONFIG = MFCConfig(min_clients=1)
ADMIT_STAGE = StagePlan(
    name="Base", method=Method.GET, degradation_quantile=0.5, object_paths=("/",)
)
CROWD = 20


class StubClient:
    """A client whose unloaded health probe reads *unloaded_s*."""

    def __init__(self, client_id, unloaded_s):
        self.client_id = client_id
        self.unloaded_s = unloaded_s
        self.base_times = {"/": 0.05}

    def probe_unloaded(self, path, method, body_bytes=0.0, connections=1):
        yield 0.0
        return Status.OK, self.unloaded_s


class StubCoordinator:
    """The three coordinator services the policy calls, counted."""

    def __init__(self, clients):
        self.config = ADMIT_CONFIG
        self._position = {c.client_id: i for i, c in enumerate(clients)}
        self.probes = 0
        self.remeasures = 0

    def _probe(self, clients):
        self.probes += 1
        yield 0.0
        return {c.client_id for c in clients}

    def _delay_computation(self, stage, live):
        self.remeasures += 1
        yield 0.0
        return {c.client_id: DelayEstimates(c.client_id, 0.01, 0.01) for c in live}


def drive(generator):
    """Run a policy generator to completion outside a simulator."""
    try:
        while True:
            next(generator)
    except StopIteration as stop:
        return stop.value


def crafted_epoch(normalized, received=CROWD, degraded=False, aggregate=0.0):
    reports = [
        ClientReport(f"c{i}", Status.OK, 1000.0, 0.1, value)
        for i, value in enumerate(normalized[:received])
    ]
    return EpochResult(
        index=1,
        label=EpochLabel.NORMAL,
        crowd_size=CROWD,
        clients_used=CROWD,
        target_time=0.0,
        reports=reports,
        aggregate_normalized_s=aggregate,
        degraded=degraded,
        missing_reports=CROWD - received,
    )


def healthy_epoch():
    return crafted_epoch([0.01] * CROWD)


def lossy_epoch():
    return crafted_epoch([0.01] * CROWD, received=CROWD // 4)


def censored_epoch():
    return crafted_epoch([9.0] * CROWD, degraded=True, aggregate=9.0)


def stale_epoch():
    return crafted_epoch([-0.5] * 3 + [0.01] * (CROWD - 3))


def degraded_epoch():
    return crafted_epoch([0.5] * CROWD, degraded=True, aggregate=0.5)


@pytest.mark.parametrize(
    "make_epoch,admits,unloaded_s,verdict,needle,invalid,remeasures",
    [
        (healthy_epoch, 1, 0.0, Verdict.ACCEPT, "", 0, 0),
        (lossy_epoch, 1, 0.0, Verdict.RETRY, "lost 75% of scheduled reports", 1, 0),
        (censored_epoch, 1, 0.0, Verdict.RETRY, "rests on killed requests", 1, 0),
        (stale_epoch, 1, 0.0, Verdict.RETRY, "stale base measurements: 3 of 20", 1, 1),
        (degraded_epoch, 1, 0.0, Verdict.ACCEPT, "", 0, 0),
        (degraded_epoch, 1, 1.0, Verdict.RETRY, "ambient degradation", 1, 0),
        # the second sick probe aborts before the epoch is marked invalid
        (degraded_epoch, 2, 1.0, Verdict.ABORT, "safety abort", 1, 0),
        (
            lossy_epoch,
            EPOCH_RETRY_LIMIT + 1,
            0.0,
            Verdict.ABORT,
            f"invalid epoch at crowd {CROWD} after {EPOCH_RETRY_LIMIT + 1} "
            "attempts: lost 75%",
            EPOCH_RETRY_LIMIT + 1,
            0,
        ),
    ],
    ids=[
        "healthy",
        "lost-reports",
        "censored",
        "stale-bases",
        "degraded-healthy-probe",
        "degraded-sick-probe",
        "two-sick-probes",
        "retry-limit",
    ],
)
def test_hardened_admission(
    make_epoch, admits, unloaded_s, verdict, needle, invalid, remeasures
):
    clients = [StubClient(f"c{i}", unloaded_s) for i in range(CROWD)]
    coordinator = StubCoordinator(clients)
    policy = Hardened(coordinator)
    result = StageResult(stage_name="Base", outcome=StageOutcome.ABORTED)
    drive(policy.start_stage(ADMIT_STAGE, clients, result))
    estimates = {c.client_id: DelayEstimates(c.client_id, 0.01, 0.01) for c in clients}
    policy.screen_bases(estimates)
    verdicts = []
    for _ in range(admits):
        epoch = make_epoch()
        admission = drive(policy.admit(CROWD, clients, epoch))
        verdicts.append(admission.verdict)
    # every admit before the last one retried the crowd
    assert verdicts == [Verdict.RETRY] * (admits - 1) + [verdict]
    assert needle in admission.reason
    assert result.invalid_epochs == invalid
    assert (epoch.label is EpochLabel.INVALID) == (invalid == admits)
    # stale bases are re-measured in place for the whole pool
    assert coordinator.remeasures == remeasures
    assert len(estimates) == CROWD
    if verdict is Verdict.RETRY:
        # a retry re-checks liveness (after the stage-start check)
        assert coordinator.probes == 2


def test_null_policy_is_the_papers_algorithm():
    clients = [StubClient(f"c{i}", 1.0) for i in range(CROWD)]
    coordinator = StubCoordinator(clients)
    policy = HardeningPolicy(coordinator)
    result = StageResult(stage_name="Base", outcome=StageOutcome.ABORTED)
    assert drive(policy.start_stage(ADMIT_STAGE, clients, result)) is None
    for make_epoch in (lossy_epoch, censored_epoch, stale_epoch, degraded_epoch):
        epoch = make_epoch()
        assert drive(policy.admit(CROWD, clients, epoch)).verdict is Verdict.ACCEPT
        assert policy.samples(epoch.reports) == epoch.reports
    assert drive(policy.accepted()) is None
    assert coordinator.probes == coordinator.remeasures == 0
    assert not policy.quarantined and result.invalid_epochs == 0
