"""Tests for the MFC-mr / staggered variants and the measurer extension."""

import pytest

from repro.core.config import MFCConfig
from repro.core.measurers import Measurer
from repro.core.runner import MFCRunner
from repro.core.stages import StageKind
from repro.core.variants import mfc_mr_config, staggered_config
from repro.server.http import Method, Status
from repro.server.presets import qtnp_server
from repro.workload.fleet import FleetSpec

FLEET = FleetSpec(n_clients=55, unresponsive_fraction=0.0)


def test_mfc_mr_doubles_requests_per_epoch():
    config = mfc_mr_config(
        MFCConfig(min_clients=50, initial_crowd=10, crowd_step=10),
        requests_per_client=2,
        max_crowd=20,
        threshold_s=1e6,  # sweep: never stop
    )
    runner = MFCRunner.build(
        qtnp_server(), fleet_spec=FLEET, config=config,
        stages=("Base",), seed=8,
    )
    result = runner.run()
    stage = result.stage(StageKind.BASE.value)
    first = stage.epochs[0]
    # 10 requests from 5 clients
    assert first.crowd_size == 10
    assert first.clients_used == 5
    # both of a client's parallel requests report
    per_client = {}
    for report in first.reports:
        per_client[report.client_id] = per_client.get(report.client_id, 0) + 1
    assert set(per_client.values()) == {2}


def test_staggered_arrivals_spread_at_server():
    config = staggered_config(
        MFCConfig(min_clients=50, initial_crowd=20, crowd_step=20,
                  max_crowd=20, threshold_s=1e6),
        interval_s=0.250,
    )
    runner = MFCRunner.build(
        qtnp_server(), fleet_spec=FLEET, config=config,
        stages=("Base",), seed=9,
    )
    result = runner.run()
    stage = result.stage(StageKind.BASE.value)
    epoch = stage.epochs[0]
    log = runner.server.access_log
    window = log.mfc_records(
        log.in_window(epoch.target_time - 1.0, epoch.target_time + 20.0)
    )
    offsets = log.arrival_offsets(window)
    # 20 arrivals, one every 250 ms → ~4.75 s total spread
    assert len(offsets) == 20
    assert offsets[-1] > 3.5
    gaps = [b - a for a, b in zip(offsets, offsets[1:])]
    assert 0.1 < sum(gaps) / len(gaps) < 0.5


def test_staggered_softens_degradation():
    """A server that folds under a synchronized burst absorbs the same
    volume staggered (the §6 request-shaping insight)."""
    base_cfg = MFCConfig(min_clients=50, max_crowd=40, threshold_s=0.100)

    def stop_size(config, seed=10):
        runner = MFCRunner.build(
            qtnp_server(), fleet_spec=FLEET, config=config,
            stages=("Base",), seed=seed,
        )
        stage = runner.run().stage(StageKind.BASE.value)
        return stage.stopping_crowd_size

    synchronized = stop_size(base_cfg)
    staggered = stop_size(staggered_config(base_cfg, interval_s=0.200))
    assert synchronized is not None
    assert staggered is None or staggered > synchronized


def test_measurer_samples_response_times():
    runner = MFCRunner.build(
        qtnp_server(), fleet_spec=FLEET,
        config=MFCConfig(min_clients=50, max_crowd=15),
        stages=("Base",), seed=11,
    )
    measurer = Measurer(
        runner.sim,
        runner.topology.clients[0],
        runner.service,
        MFCConfig(),
        path="/index.html",
        method=Method.HEAD,
    )
    # stay within the experiment's lifetime (runner.run returns when
    # the coordinator finishes)
    measurer.measure_at([1.0, 30.0, 60.0])
    runner.run()
    assert len(measurer.samples) == 3
    assert all(s.status is Status.OK for s in measurer.samples)
    assert measurer.baseline() is not None
    assert len(measurer.series()) == 3


def test_measurer_observes_cross_resource_impact():
    """A query-probing measurer sees degradation while a Large Object
    crowd saturates a narrow link (the §6 correlation question)."""
    from repro.server.presets import Scenario, univ1_server

    scenario = univ1_server().with_background(0.0)
    runner = MFCRunner.build(
        scenario,
        fleet_spec=FleetSpec(n_clients=55, unresponsive_fraction=0.0),
        config=MFCConfig(min_clients=50, max_crowd=40, threshold_s=1e6),
        stages=("LargeObject",),
        seed=12,
    )
    measurer = Measurer(
        runner.sim,
        runner.topology.clients[-1],
        runner.service,
        MFCConfig(),
        path="/index.html",
        method=Method.GET,
    )
    # one quiet baseline sample, then samples throughout the experiment
    measurer.measure_at([0.5] + [120.0 + 30.0 * i for i in range(8)])
    runner.run()
    baseline = measurer.baseline()
    peak = max(s.response_time_s for s in measurer.samples)
    assert peak > baseline  # the crowd's load is visible to the measurer
