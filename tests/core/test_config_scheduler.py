"""Tests for MFCConfig and the synchronization scheduler."""

import pytest

from repro.core.config import MFCConfig
from repro.core.scheduler import DelayEstimates, SyncScheduler, naive_plan
from repro.core.variants import mfc_mr_config, staggered_config


# -- config ---------------------------------------------------------------------


def test_default_config_is_valid():
    MFCConfig().validate()


@pytest.mark.parametrize(
    "overrides",
    [
        dict(threshold_s=0),
        dict(crowd_step=0),
        dict(initial_crowd=0),
        dict(max_crowd=3, initial_crowd=5),
        dict(min_clients=0),
        dict(requests_per_client=0),
        dict(stagger_interval_s=-1.0),
    ],
)
def test_config_validation_rejects(overrides):
    with pytest.raises(ValueError):
        MFCConfig(**overrides).validate()


def test_with_returns_validated_copy():
    cfg = MFCConfig().with_(threshold_s=0.25)
    assert cfg.threshold_s == 0.25
    assert MFCConfig().threshold_s == 0.100  # original untouched
    with pytest.raises(ValueError):
        MFCConfig().with_(threshold_s=-1)


def test_mfc_mr_config():
    cfg = mfc_mr_config(MFCConfig(), requests_per_client=2)
    assert cfg.requests_per_client == 2
    assert cfg.threshold_s == 0.250
    assert cfg.max_crowd == 150
    with pytest.raises(ValueError):
        mfc_mr_config(MFCConfig(), requests_per_client=1)


def test_staggered_config():
    cfg = staggered_config(MFCConfig(), interval_s=0.010)
    assert cfg.stagger_interval_s == 0.010
    with pytest.raises(ValueError):
        staggered_config(MFCConfig(), interval_s=0)


# -- scheduler -------------------------------------------------------------------


def est(cid, coord, target):
    return DelayEstimates(client_id=cid, coord_rtt_s=coord, target_rtt_s=target)


def test_command_lead_formula():
    sched = SyncScheduler()
    e = est("c", coord=0.040, target=0.100)
    # 0.5 * 0.04 + 1.5 * 0.1 = 0.17
    assert sched.command_lead_s(e) == pytest.approx(0.170)


def test_plan_dispatch_times():
    sched = SyncScheduler()
    estimates = [est("a", 0.02, 0.05), est("b", 0.08, 0.20)]
    plans = sched.plan(now=0.0, target_time=1.0, estimates=estimates)
    assert plans[0].dispatch_time == pytest.approx(1.0 - (0.01 + 0.075))
    assert plans[1].dispatch_time == pytest.approx(1.0 - (0.04 + 0.30))
    assert all(p.intended_arrival == 1.0 for p in plans)


def test_plan_zero_jitter_arrivals_identical():
    """With stationary latencies every request arrives exactly at T:
    dispatch + 0.5*coord + 1.5*target == T for every client."""
    sched = SyncScheduler()
    estimates = [est(f"c{i}", 0.01 * (i + 1), 0.03 * (i + 1)) for i in range(10)]
    plans = sched.plan(0.0, 5.0, estimates)
    for p, e in zip(plans, estimates):
        arrival = p.dispatch_time + 0.5 * e.coord_rtt_s + 1.5 * e.target_rtt_s
        assert arrival == pytest.approx(5.0)


def test_infeasible_target_raises():
    sched = SyncScheduler()
    with pytest.raises(ValueError, match="infeasible"):
        sched.plan(now=0.0, target_time=0.05, estimates=[est("slow", 0.2, 0.4)])


def test_earliest_feasible_T():
    sched = SyncScheduler()
    estimates = [est("a", 0.02, 0.05), est("b", 0.08, 0.20)]
    t = sched.earliest_feasible_T(10.0, estimates)
    assert t == pytest.approx(10.0 + 0.04 + 0.30)
    with pytest.raises(ValueError):
        sched.earliest_feasible_T(0.0, [])


def test_stagger_offsets_arrivals():
    sched = SyncScheduler(stagger_interval_s=0.050)
    estimates = [est(f"c{i}", 0.02, 0.05) for i in range(4)]
    plans = sched.plan(0.0, 1.0, estimates)
    arrivals = [p.intended_arrival for p in plans]
    assert arrivals == pytest.approx([1.0, 1.05, 1.10, 1.15])


def test_stagger_validation():
    with pytest.raises(ValueError):
        SyncScheduler(stagger_interval_s=-0.5)


def test_naive_plan_spreads_arrivals():
    estimates = [est("fast", 0.01, 0.02), est("slow", 0.10, 0.30)]
    plans = naive_plan(5.0, estimates)
    assert all(p.dispatch_time == 5.0 for p in plans)
    spread = plans[1].intended_arrival - plans[0].intended_arrival
    # slow client arrives (0.05+0.45) - (0.005+0.03) later
    assert spread == pytest.approx(0.465)
