"""Fault injection end to end: every kind perturbs a world, and the
same seed with the same plan reproduces the identical run.

Behavioral observables (timeouts, missing reports, shrunken fleets)
are asserted per kind where the signature is unambiguous; every kind
must at minimum change the full-detail result fingerprint against the
fault-free run of the same seed.
"""

import dataclasses
import json

import pytest

from repro.campaign.codec import encode_result
from repro.core.config import MFCConfig
from repro.faults.spec import FAULT_PRESETS, FaultEvent, FaultSpec
from repro.workload.fleet import FleetSpec
from repro.worlds import SCENARIO_PRESETS, WorldSpec

SMALL_CONFIG = MFCConfig(max_crowd=15, crowd_step=5, initial_crowd=5, min_clients=10)
SMALL_FLEET = FleetSpec(n_clients=20, unresponsive_fraction=0.0)

#: one always-overlapping event per kind: windows open at (or before)
#: the measurement phase and stay open long enough that every epoch of
#: the small world runs under the fault
EVENTS = {
    "client-dropout": FaultEvent(
        kind="client-dropout", start_s=0.0, duration_s=1e6, fraction=0.4
    ),
    "blackhole": FaultEvent(
        kind="blackhole", start_s=0.0, duration_s=1e6, fraction=0.3, prob=0.5
    ),
    "stall": FaultEvent(
        kind="stall", start_s=0.0, duration_s=1e6, fraction=0.5, delay_s=0.25
    ),
    "reset": FaultEvent(
        kind="reset", start_s=0.0, duration_s=1e6, fraction=0.3, prob=0.5
    ),
    "report-loss": FaultEvent(
        kind="report-loss", start_s=0.0, duration_s=1e6, prob=0.4
    ),
    "server-crash": FaultEvent(kind="server-crash", start_s=20.0, duration_s=30.0),
    "latency-storm": FaultEvent(
        kind="latency-storm", start_s=0.0, duration_s=1e6, fraction=0.5, factor=8.0
    ),
    "bandwidth-flap": FaultEvent(
        kind="bandwidth-flap", start_s=0.0, duration_s=1e6, factor=8.0
    ),
}


def fingerprint(result) -> str:
    return json.dumps(
        encode_result(result, detail="full"), sort_keys=True, separators=(",", ":")
    )


def run_world(faults=None, seed=5, config=SMALL_CONFIG):
    spec = WorldSpec(
        scenario=SCENARIO_PRESETS["lab"](),
        fleet=SMALL_FLEET,
        config=config,
        seed=seed,
        stages=("Base",),
        faults=faults,
    )
    return spec.build().run()


def all_reports(result):
    for stage in result.stages.values():
        for epoch in stage.epochs:
            yield from epoch.reports


# -- determinism ------------------------------------------------------------------


def test_same_seed_same_plan_reproduces_identically():
    plan = FAULT_PRESETS["blackhole"]()
    assert fingerprint(run_world(plan)) == fingerprint(run_world(plan))


def test_different_seed_differs_under_the_same_plan():
    plan = FAULT_PRESETS["blackhole"]()
    assert fingerprint(run_world(plan, seed=5)) != fingerprint(
        run_world(plan, seed=6)
    )


def test_fault_free_run_identical_with_hardening_explicitly_off():
    """No-fault worlds take the legacy coordinator path byte for byte:
    the hardening default (None → off without faults) must not differ
    from an explicit ``hardening=False``."""
    explicit = dataclasses.replace(SMALL_CONFIG, hardening=False)
    assert fingerprint(run_world()) == fingerprint(run_world(config=explicit))


# -- every kind perturbs the world ------------------------------------------------


@pytest.mark.parametrize("kind", sorted(EVENTS))
def test_fault_changes_the_run(kind):
    clean = fingerprint(run_world())
    faulted = fingerprint(run_world(FaultSpec(events=(EVENTS[kind],))))
    assert faulted != clean, f"{kind} fault left the run byte-identical"


# -- kind-specific signatures -----------------------------------------------------


def test_dropout_shrinks_the_live_fleet():
    clean = run_world()
    faulted = run_world(FaultSpec(events=(EVENTS["client-dropout"],)))
    assert faulted.live_clients < clean.live_clients


def test_report_loss_loses_reports_but_completes():
    faulted = run_world(FaultSpec(events=(EVENTS["report-loss"],)))
    missing = sum(
        epoch.missing_reports
        for stage in faulted.stages.values()
        for epoch in stage.epochs
    )
    assert missing > 0


def test_blackhole_reports_client_timeouts():
    faulted = run_world(FaultSpec(events=(EVENTS["blackhole"],)))
    assert any(r.timed_out for r in all_reports(faulted))


# -- server crash and restart -----------------------------------------------------


def _crash_world(scenario):
    return WorldSpec(
        scenario=SCENARIO_PRESETS[scenario](),
        fleet=FleetSpec(n_clients=65),
        config=MFCConfig(
            max_crowd=55, crowd_step=5, initial_crowd=5, min_clients=48, hardening=True
        ),
        seed=1,
        faults=FAULT_PRESETS["crash"](),
    )


@pytest.mark.parametrize("scenario", ["lab", "qtp"])
def test_restarted_box_counts_no_parked_requests(monkeypatch, scenario):
    # the requests a box parked while down will never be answered: once
    # it restarts it must not count them, or a least-connections
    # cluster steers by them.  The world is left open (no teardown) and
    # drained, so every request a box will ever answer is answered and
    # nothing but the restart can take the parked ones out
    from repro.sim.kernel import Simulator

    monkeypatch.setattr(Simulator, "close", lambda self: None)
    runner = _crash_world(scenario).build()
    runner.run()
    runner.sim.run()
    assert runner.faults.stats["server-restart"] == 1
    assert len(runner.servers) == (16 if scenario == "qtp" else 1)
    assert [s.pending_requests for s in runner.servers] == [0] * len(runner.servers)
    # not vacuous: the parked requests are still parked
    assert runner.sim._procs


@pytest.mark.parametrize("duration_s", [45.0, 1e6], ids=["restarted", "still-down"])
def test_torn_down_crash_world_counts_no_pending_requests(duration_s):
    # the teardown closes the parked requests: each leaves the count
    # once, whether or not a restart wrote it off first
    crash = FaultEvent(kind="server-crash", start_s=90.0, duration_s=duration_s)
    spec = dataclasses.replace(_crash_world("lab"), faults=FaultSpec(events=(crash,)))
    runner = spec.build()
    runner.run()
    assert runner.servers[0].crashed == (duration_s > 1e3)
    assert runner.servers[0].pending_requests == 0
