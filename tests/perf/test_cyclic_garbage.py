"""A finished world is freed by reference counting.

Every request moves through transfers, their completion Events and,
under contention, resource Requests.  If any of them refers back to
itself (a completion Event whose value is its own transfer, a grant
whose value is its own request), it survives its last reference and
waits for the cyclic collector, which then runs far more often in a
long survey.  The same holds for the world as a whole: one back
reference (a client holding a bound method of the coordinator, a
process waiting on an Event that waits on it) makes every object of a
dropped world wait for a full collection.  ``gc.DEBUG_SAVEALL`` keeps
everything the collector finds in ``gc.garbage``, so the tests can name
what was left behind.
"""

import gc
from collections import Counter

import pytest

from repro.core.config import MFCConfig
from repro.faults.spec import FAULT_PRESETS
from repro.net.link import Transfer
from repro.sim.events import Event
from repro.sim.resources import Request
from repro.workload.fleet import FleetSpec, lan_fleet
from repro.worlds.registry import SCENARIO_PRESETS
from repro.worlds.spec import SyntheticSpec, WorldSpec


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


def _world(scenario="qtnp", n_clients=65, max_crowd=55, hardening=False, **extra):
    step = max_crowd // 4 if extra.get("crowd_mode") else 5
    return WorldSpec(
        scenario=SCENARIO_PRESETS[scenario](),
        fleet=FleetSpec(n_clients=n_clients),
        config=MFCConfig(
            max_crowd=max_crowd,
            crowd_step=step,
            initial_crowd=step,
            min_clients=48,
            hardening=hardening,
        ),
        seed=1,
        **extra,
    )


WHOLE_WORLDS = [
    pytest.param(lambda: _world(), id="exact"),
    pytest.param(
        lambda: _world(n_clients=200, max_crowd=160, crowd_mode="cohort"),
        id="cohort",
    ),
    pytest.param(
        lambda: _world("lab", hardening=True, faults=FAULT_PRESETS["reset"]()),
        id="hardened-reset",
    ),
    pytest.param(
        lambda: _world("lab", hardening=True, faults=FAULT_PRESETS["crash"]()),
        id="crash",
    ),
    pytest.param(
        lambda: WorldSpec(
            scenario=SCENARIO_PRESETS["qtnp"](), seed=1, indicator=True
        ),
        id="indicator",
    ),
    pytest.param(
        lambda: WorldSpec(
            synthetic=SyntheticSpec(
                model="linear", params={"seconds_per_request": 0.002}
            ),
            fleet=lan_fleet(60),
            config=MFCConfig(
                threshold_s=0.1,
                max_crowd=60,
                crowd_step=10,
                initial_crowd=10,
                min_clients=48,
            ),
            seed=1,
        ),
        id="synthetic-linear",
    ),
    pytest.param(lambda: _world("qtp"), id="qtp-cluster"),
    pytest.param(lambda: _world(monitor_interval_s=1.0), id="monitor"),
]


@pytest.mark.parametrize("make_spec", WHOLE_WORLDS)
def test_dropped_world_leaves_no_garbage_at_all(make_spec):
    spec = make_spec()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        runner = spec.build()
        result = runner.run()
        assert result.total_requests > 0
        # the whole world, not only the request path: the collector must
        # find nothing, during the run or after the world is dropped
        del runner, result
        gc.collect()
        left = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert not left, left.most_common(10)
