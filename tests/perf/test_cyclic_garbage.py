"""A finished world leaves its request-path objects to reference counting.

Every request moves through transfers, their completion Events and,
under contention, resource Requests.  If any of them refers back to
itself (a completion Event whose value is its own transfer, a grant
whose value is its own request), it survives its last reference and
waits for the cyclic collector, which then runs far more often in a
long survey.  ``gc.DEBUG_SAVEALL`` keeps everything the collector
finds in ``gc.garbage``, so the test can name what was left behind.
"""

import gc
from collections import Counter

import pytest

from repro.core.config import MFCConfig
from repro.faults.spec import FAULT_PRESETS
from repro.net.link import Transfer
from repro.sim.events import Event
from repro.sim.resources import Request
from repro.workload.fleet import FleetSpec
from repro.worlds.registry import SCENARIO_PRESETS
from repro.worlds.spec import WorldSpec


@pytest.mark.parametrize(
    "scenario,n_clients,max_crowd,crowd_mode,fault",
    [
        pytest.param("qtnp", 65, 55, None, None, id="qtnp-exact"),
        pytest.param("qtnp", 200, 160, "cohort", None, id="qtnp-cohort"),
        pytest.param("lab", 65, 55, None, "reset", id="lab-exact-reset"),
    ],
)
def test_finished_world_leaves_no_cyclic_garbage(
    scenario, n_clients, max_crowd, crowd_mode, fault
):
    step = max_crowd // 4 if crowd_mode else 5
    runner = WorldSpec(
        scenario=SCENARIO_PRESETS[scenario](),
        fleet=FleetSpec(n_clients=n_clients),
        config=MFCConfig(
            max_crowd=max_crowd,
            crowd_step=step,
            initial_crowd=step,
            min_clients=48,
            hardening=fault is not None,
        ),
        seed=1,
        crowd_mode=crowd_mode,
        faults=FAULT_PRESETS[fault]() if fault else None,
    ).build()
    # the runner stays referenced, so only objects the run dropped can
    # show up as garbage
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        runner.run()
        gc.collect()
        left = Counter(
            type(obj).__name__
            for obj in gc.garbage
            if isinstance(obj, (Transfer, Request, Event))
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert not left
