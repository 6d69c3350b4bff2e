"""Unit contracts of the cohort aggregation layer.

Covers the homogeneity key, the occupancy ledger (``CohortMeter``),
the per-epoch positional ramp, report synthesis, and — the seed-parity
linchpin — RNG-stream isolation: cohort draws must never perturb the
``"faults"`` or legacy provisioning streams.
"""

import random
from dataclasses import replace

import pytest

from repro.campaign.codec import encode_result
from repro.core.cohort import (
    RAMP_FRACTION,
    Cohort,
    CohortMeter,
    choose_rep,
    cohort_key,
    epoch_drain_s,
    epoch_ramp_fraction,
    synthesize_cohort_reports,
)
from repro.core.config import MFCConfig
from repro.server.http import Status
from repro.sim.rng import RNGRegistry
from repro.worlds.registry import SCENARIO_PRESETS
from repro.worlds.spec import WorldSpec
from repro.workload.fleet import FleetSpec


class _Spec:
    def __init__(self, rtt=0.040, bps=1e7, group=None):
        self.rtt_to_target = rtt
        self.access_bps = bps
        self.bottleneck_group = group


class _Latency:
    def __init__(self, rtt):
        self._rtt = rtt

    def sample_rtt(self):
        return self._rtt


class _Node:
    def __init__(self, spec):
        self.spec = spec
        self.latency_to_target = _Latency(spec.rtt_to_target)


class _Member:
    def __init__(self, client_id, rtt=0.040):
        self.client_id = client_id
        self.node = _Node(_Spec(rtt=rtt))
        self.base_times = {}


class _Resource:
    def __init__(self, name, capacity=1):
        self.name = name
        self.capacity = capacity


# -- cohort_key --------------------------------------------------------------


def test_cohort_key_groups_homogeneous_clients():
    a = _Spec(rtt=0.0400)
    b = _Spec(rtt=0.0401)  # same quarter-octave bucket
    assert cohort_key(a, "/obj") == cohort_key(b, "/obj")
    # cache-busted variants of one object group together
    assert cohort_key(a, "/obj?mfc-cb=1") == cohort_key(a, "/obj?mfc-cb=2")
    # but apart from the uncached underlying object
    assert cohort_key(a, "/obj?mfc-cb=1") != cohort_key(a, "/obj")


def test_cohort_key_separates_heterogeneous_clients():
    base = _Spec(rtt=0.040)
    assert cohort_key(base, "/a") != cohort_key(base, "/b")
    assert cohort_key(base, "/a") != cohort_key(_Spec(rtt=0.080), "/a")
    assert cohort_key(base, "/a") != cohort_key(_Spec(bps=2e7), "/a")
    assert cohort_key(base, "/a") != cohort_key(_Spec(group="dsl"), "/a")


def test_choose_rep_is_median_rtt_member():
    members = [_Member(f"c{i}", rtt=0.010 * (i + 1)) for i in range(5)]
    random.Random(3).shuffle(members)
    assert choose_rep(members).node.spec.rtt_to_target == pytest.approx(0.030)


# -- CohortMeter + drains ----------------------------------------------------


def test_meter_accumulates_weighted_and_per_member_demand():
    cpu = _Resource("cpu", capacity=2)
    meter = CohortMeter(weight=10)
    meter.demand(cpu, 0.01, 10)
    meter.demand(cpu, 0.02, 10)
    assert meter.demands[cpu] == pytest.approx([0.3, 0.03])

    cohort = Cohort(key=("k",))
    cohort.members = [_Member(f"c{i}") for i in range(10)]
    cohort.meter = meter
    drain = epoch_drain_s([cohort])
    # 0.3 unit-seconds over capacity 2 drains in 0.15s
    assert drain[cpu] == pytest.approx(0.15)
    # the last member queues behind everyone's demand but its own
    assert meter.positional_queue_s(drain) == pytest.approx(0.15 - 0.03)


def test_positional_queue_is_bottleneck_max_not_sum():
    cpu, disk = _Resource("cpu"), _Resource("disk")
    meter = CohortMeter(weight=4)
    meter.demand(cpu, 0.01, 4)
    meter.demand(disk, 0.05, 4)
    drain = {cpu: 0.5, disk: 0.3}
    # tandem hops pipeline: max(0.5-0.01, 0.3-0.05), not the sum
    assert meter.positional_queue_s(drain) == pytest.approx(0.49)


# -- epoch_ramp_fraction -----------------------------------------------------


def _one_cohort_epoch(per_member, weight, capacity=1):
    res = _Resource("r", capacity=capacity)
    meter = CohortMeter(weight=weight)
    meter.demand(res, per_member, weight)
    cohort = Cohort(key=("k",))
    cohort.members = [_Member(f"c{i}") for i in range(weight)]
    cohort.meter = meter
    return [cohort], epoch_drain_s([cohort])


def test_short_burst_epoch_keeps_uniform_positions():
    # residence (0.001s) far below the queue drain: classic FIFO
    cohorts, drain = _one_cohort_epoch(per_member=0.001, weight=100)
    assert epoch_ramp_fraction(cohorts, drain) == pytest.approx(1.0)


def test_transfer_dominated_epoch_hits_the_plateau_floor():
    # the LargeObject shape: a big worker pool each member *holds*
    # through a long transfer (residence) while a serial cpu hop
    # supplies the actual queue drain
    workers = _Resource("workers", capacity=1000)
    cpu = _Resource("cpu", capacity=1)
    meter = CohortMeter(weight=100)
    meter.demand(workers, 1.0, 100)
    meter.demand(cpu, 0.005, 100)
    cohort = Cohort(key=("k",))
    cohort.members = [_Member(f"c{i}") for i in range(100)]
    cohort.meter = meter
    cohorts = [cohort]
    drain = epoch_drain_s(cohorts)
    # residence 1.0s vs queue-relevant drain ~0.495s: stretch ≈ 2,
    # deep in the interleaved-passes regime
    assert epoch_ramp_fraction(cohorts, drain) == pytest.approx(RAMP_FRACTION)


def test_unmetered_epoch_defaults_to_uniform():
    cohort = Cohort(key=("k",))
    cohort.members = [_Member("c0")]
    assert epoch_ramp_fraction([cohort], {}) == pytest.approx(1.0)


# -- synthesize_cohort_reports -----------------------------------------------


def _synth_cohort(n_members=8, rep_elapsed=0.5):
    cohort = Cohort(key=("k",))
    cohort.members = [_Member(f"c{i}") for i in range(n_members)]
    cohort.paths = {m.client_id: "/obj" for m in cohort.members}
    cohort.rep = cohort.members[0]
    res = _Resource("r")
    meter = CohortMeter(weight=n_members)
    meter.demand(res, 0.01, n_members)
    meter.record_outcome(Status.OK, 1000.0, rep_elapsed, 0.040)
    cohort.meter = meter
    return cohort, epoch_drain_s([cohort])


def test_synthesis_yields_one_report_per_member_per_slot():
    cohort, drain = _synth_cohort()
    reports = synthesize_cohort_reports(
        cohort, random.Random(0), loss_prob=0.0,
        fault_gate=None, arrival_time=0.0, epoch_drain=drain,
    )
    assert len(reports) == cohort.weight
    assert {r.client_id for r in reports} == {
        m.client_id for m in cohort.members
    }
    for r in reports:
        assert r.status is Status.OK
        assert r.numbytes == 1000.0
        # floor: nothing returns faster than handshake + request RTTs
        assert r.response_time_s >= 2.5 * 0.040 - 1e-12


def test_synthesis_censors_at_the_kill_timer():
    cohort, drain = _synth_cohort(rep_elapsed=50.0)
    reports = synthesize_cohort_reports(
        cohort, random.Random(0), loss_prob=0.0,
        fault_gate=None, arrival_time=0.0, epoch_drain=drain,
    )
    assert reports
    for r in reports:
        assert r.status is Status.CLIENT_TIMEOUT
        assert r.response_time_s == pytest.approx(10.0)
        assert r.numbytes == 0.0


def test_silent_cohort_when_command_was_lost():
    cohort, drain = _synth_cohort()
    cohort.meter.outcomes.clear()
    assert (
        synthesize_cohort_reports(
            cohort, random.Random(0), loss_prob=0.0,
            fault_gate=None, arrival_time=0.0, epoch_drain=drain,
        )
        == []
    )


def test_report_loss_draws_thin_the_cohort():
    cohort, drain = _synth_cohort(n_members=64)
    reports = synthesize_cohort_reports(
        cohort, random.Random(1), loss_prob=0.5,
        fault_gate=None, arrival_time=0.0, epoch_drain=drain,
    )
    assert 0 < len(reports) < 64


# -- RNG-stream isolation ----------------------------------------------------


def test_named_streams_are_independent_of_sibling_consumption():
    """The ``"faults"`` sequence must not shift however much the
    ``"cohort"`` stream is (or is not) consumed — same for the legacy
    provisioning streams."""
    for probed in ("faults", "coordinator", "fleet"):
        quiet = RNGRegistry(7)
        baseline = [quiet.stream(probed).random() for _ in range(16)]

        noisy = RNGRegistry(7)
        for _ in range(1000):
            noisy.stream("cohort").random()
        assert [
            noisy.stream(probed).random() for _ in range(16)
        ] == baseline


def test_cohort_run_leaves_exact_runs_byte_identical():
    """Running a cohort-mode world between two exact runs of the same
    spec must not change the exact result — no hidden global-RNG use
    anywhere in the cohort path."""
    spec = WorldSpec(
        scenario=SCENARIO_PRESETS["lab"](),
        fleet=FleetSpec(n_clients=24),
        config=MFCConfig(max_crowd=15, crowd_step=5, min_clients=10),
        seed=11,
    )
    first = encode_result(spec.build().run())
    replace(spec, crowd_mode="cohort").build().run()
    assert encode_result(spec.build().run()) == first
