"""Determinism parity: refactored substrate vs the frozen seed layers.

The hot-path refactors must be *behaviour-preserving*: a world built
on the refactored substrate has to produce an ``MFCResult``
byte-identical to one built on the frozen seed implementation.  Two
frozen references exist, one per refactored layer:

- ``tests/reference/_seed_reference.py`` — the pre-refactor
  ``Network`` (active-link-set allocator, incremental link
  aggregates), run as :class:`reference.adapters.SeedNetwork`;
- ``tests/reference/_seed_kernel.py`` — the pre-wheel simulation
  kernel (single ``(when, eid, obj)`` heap), run as
  :class:`reference.adapters.SeedSimulator`.

This is not only a refactor-safety check — the campaign result caches
under ``benchmarks/results/cache/`` are keyed by world parameters, not
by code version, so any behaviour change would silently invalidate
them.

Each parity test swaps one frozen layer into the world assembly point
and compares full-detail encodings (every epoch, every client report,
every float) across a matrix of scenarios × seeds.  The fingerprint
replays rebuild every world and campaign recorded in
``tests/golden/fingerprints.json`` (see :mod:`golden_worlds`) and
require byte-identical hashes; the cheap shapes run in tier-1, the
crowd-scale and full-population ones under ``REPRO_PARITY_FULL=1``
(the CI kernel-parity job).
"""

import hashlib
import json
import os

import golden_worlds
import pytest
from reference.adapters import SeedNetwork, SeedSimulator

import repro.net.topology as topology_module
import repro.sim.kernel as kernel_module
from repro.campaign.codec import encode_result
from repro.core.config import MFCConfig
from repro.core.stages import StageKind
from repro.faults.spec import FAULT_PRESETS
from repro.server import presets
from repro.workload.fleet import FleetSpec
from repro.worlds.registry import SCENARIO_PRESETS
from repro.worlds.spec import WorldSpec


def _run_world(scenario_factory, stage_kind, seed):
    config = MFCConfig(
        threshold_s=0.100,
        max_crowd=25,
        crowd_step=5,
        initial_crowd=5,
        min_clients=20,
    )
    runner = WorldSpec(
        scenario=scenario_factory(),
        fleet=FleetSpec(n_clients=30),
        config=config,
        stages=(stage_kind.value,),
        seed=seed,
    ).build()
    return runner.run()


def _canonical(result) -> str:
    return json.dumps(
        encode_result(result, detail="full"), sort_keys=True, separators=(",", ":")
    )


MATRIX = [
    pytest.param(presets.lab_validation_server, StageKind.LARGE_OBJECT, 0,
                 id="lab-large-object-seed0"),
    pytest.param(presets.lab_validation_server, StageKind.BASE, 1,
                 id="lab-base-seed1"),
    pytest.param(presets.qtnp_server, StageKind.SMALL_QUERY, 0,
                 id="qtnp-small-query-seed0"),
    pytest.param(presets.qtnp_server, StageKind.LARGE_OBJECT, 1,
                 id="qtnp-large-object-seed1"),
    pytest.param(presets.univ1_server, StageKind.LARGE_OBJECT, 2,
                 id="univ1-large-object-seed2"),
]


@pytest.mark.parametrize("scenario_factory,stage_kind,seed", MATRIX)
def test_refactored_world_matches_seed_network(
    monkeypatch, scenario_factory, stage_kind, seed
):
    fast = _canonical(_run_world(scenario_factory, stage_kind, seed))
    monkeypatch.setattr(topology_module, "Network", SeedNetwork)
    reference = _canonical(_run_world(scenario_factory, stage_kind, seed))
    assert fast == reference


def test_same_world_twice_is_identical():
    """Run-to-run determinism of the refactored substrate itself."""
    a = _canonical(_run_world(presets.lab_validation_server, StageKind.LARGE_OBJECT, 3))
    b = _canonical(_run_world(presets.lab_validation_server, StageKind.LARGE_OBJECT, 3))
    assert a == b


# -- coordinator digests, both crowd modes, clean and hardened ----------------
#
# The seed-layer parity tests above run the same coordinator on both
# sides, so they cannot see coordinator drift.  These digests were
# recorded from the twin-path coordinator (separate exact and cohort
# epoch functions); any refactor of the epoch pipeline must reproduce
# them byte for byte.  Faulted cells run hardened, so re-liveness,
# quarantine, invalid-epoch retry and health probes are pinned too.

CROWD_MODE_DIGESTS = [
    ("lab", "exact", None, ("LargeObject", "SmallQuery"), {},
     "7a4a43b4aca0b4be3fb0b8ac191bfba86aee042fd5992cc1e05fcdd9ab466fed"),
    ("qtnp", "cohort", None, ("LargeObject", "SmallQuery"), {},
     "8505c919945b8e2ff64991abf9bca58ff05461ec105aca28688d573e2541340d"),
    ("lab", "exact", "stall", ("Upload", "ConnChurn"), {},
     "b74cb86a0a7a3261e4e6ba44de12d2d7fbacf12e701a0cc30717dba3349e51c7"),
    ("qtnp", "cohort", "dropout", ("Upload", "ConnChurn"), {},
     "70da594576e80864d37ba5f5b763e1405eccb83e009078d237bc0d120f0566db"),
    ("qtnp", "exact", "blackhole", ("CacheBust", "Base"), {},
     "6722e19c1b8bdbd8ac8b04f81ce5bdcd12de036059b01e25b9274c45d68f817c"),
    ("lab", "cohort", "reset", ("CacheBust", "LargeObject"), {},
     "413b705776eb097a37722aae9314bca7b71a6d9df059a52a69b0b169c28beb59"),
    ("qtnp", "exact", "report-loss", ("SmallQuery",),
     {"use_naive_scheduling": True},
     "92bed04620aecf5573b7f7f82e59ba41d8f593e3fa16d54a462059a49e5c90ac"),
    ("lab", "cohort", "storm", ("Base",),
     {"use_naive_scheduling": True, "control_loss_prob": 0.05},
     "8c5fce10f75da4c5f26990644c96c99d349e3e1e46c31a6617953f6fe5c9539e"),
    # the remaining build shapes: a load-balanced cluster behind a shared
    # mid-path bottleneck with background and monitor, and the indicator
    # world with and without a background override (an indicator world
    # reads no fleet or config, so those rows reset both to defaults)
    ("qtp", "exact", None, ("LargeObject", "SmallQuery"),
     {"fleet": FleetSpec(n_clients=40, bottleneck_group="transit",
                         bottleneck_fraction=0.4),
      "bottleneck_capacity_bps": 40e6, "background_rps": 35.0,
      "monitor_interval_s": 0.5},
     "e24a4f8ceafc285c8d9bea6943ce57a7ef89cc12a6d2a413e9b64f60542e2d6b"),
    ("qtp", "cohort", None, ("LargeObject", "SmallQuery"),
     {"fleet": FleetSpec(n_clients=40, bottleneck_group="transit",
                         bottleneck_fraction=0.4),
      "bottleneck_capacity_bps": 40e6, "background_rps": 35.0,
      "monitor_interval_s": 0.5},
     "c46c1c3ba898450d3526b6fc1212659d73a653c2df261ac0c729a6437e288a13"),
    ("qtnp", "indicator", None, None,
     {"indicator": True, "fleet": FleetSpec(), "config": MFCConfig()},
     "d1120578d8feb4665e02acdcb7eb70fff4ef5df0c0f568e0d62b3ec115c67df7"),
    ("lab", "indicator", None, None,
     {"indicator": True, "fleet": FleetSpec(), "config": MFCConfig(),
      "background_rps": 12.0},
     "d608387178aea9a0028367ce7e61f475e3e4647fe29b5fc5045b7400aece566a"),
]


@pytest.mark.parametrize(
    "scenario,mode,fault,stages,extra,digest",
    [
        pytest.param(*cell, id=f"{cell[0]}-{cell[1]}-{cell[2] or 'clean'}")
        for cell in CROWD_MODE_DIGESTS
    ],
)
def test_crowd_mode_world_digests_are_byte_stable(
    scenario, mode, fault, stages, extra, digest
):
    fields = dict(
        scenario=SCENARIO_PRESETS[scenario](),
        fleet=FleetSpec(n_clients=40),
        config=MFCConfig(
            max_crowd=30,
            initial_crowd=5,
            crowd_step=5,
            min_clients=20,
            hardening=fault is not None,
        ),
        seed=7,
        stages=stages,
        crowd_mode="cohort" if mode == "cohort" else None,
        faults=FAULT_PRESETS[fault]() if fault else None,
    )
    spec = WorldSpec(**{**fields, **extra})
    canonical = _canonical(spec.build().run())
    assert hashlib.sha256(canonical.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("scenario_factory,stage_kind,seed", MATRIX)
def test_wheel_kernel_matches_seed_kernel(
    monkeypatch, scenario_factory, stage_kind, seed
):
    """Whole worlds on the timer-wheel kernel vs the frozen seed heap.

    ``WorldSpec.build`` imports ``Simulator`` from ``repro.sim.kernel``
    at call time, so patching the module attribute swaps the kernel
    under the entire world assembly (events, processes, network,
    coordinator) without touching any other layer.
    """
    wheel = _canonical(_run_world(scenario_factory, stage_kind, seed))
    monkeypatch.setattr(kernel_module, "Simulator", SeedSimulator)
    reference = _canonical(_run_world(scenario_factory, stage_kind, seed))
    assert wheel == reference


# -- recorded fingerprints must stay byte-stable ------------------------------

FULL_ONLY = pytest.mark.skipif(
    not os.environ.get("REPRO_PARITY_FULL"),
    reason="crowd-scale and full-population replays only run with REPRO_PARITY_FULL=1",
)

#: every key of tests/golden/fingerprints.json but the acceptance
#: world (it keeps its own test) → the golden input that reproduces
#: it; the cheap shapes run in tier-1, the rest under
#: REPRO_PARITY_FULL=1 (the CI kernel-parity job)
REPLAYS = [
    ("world.large_object_60", golden_worlds.large_object,
     dict(n_clients=60, max_crowd=40, crowd_step=10), ()),
    ("world.large_object_500", golden_worlds.large_object,
     dict(n_clients=500, max_crowd=400, crowd_step=20), FULL_ONLY),
    ("world.large_object_1000", golden_worlds.large_object,
     dict(n_clients=1000, max_crowd=600, crowd_step=30), FULL_ONLY),
    ("world.bisect_ramp_60", golden_worlds.bisect_ramp,
     dict(n_clients=60, max_crowd=60, crowd_step=5, access_mbps=500.0), ()),
    ("world.bisect_ramp", golden_worlds.bisect_ramp,
     dict(n_clients=200, max_crowd=200, crowd_step=5), FULL_ONLY),
    ("world.crowd_500", golden_worlds.crowd_sweep,
     dict(n_clients=500, max_crowd=500, crowd_step=50), ()),
    ("world.crowd_2000", golden_worlds.crowd_sweep,
     dict(n_clients=2000, max_crowd=2000, crowd_step=100), FULL_ONLY),
    ("world.crowd_5000", golden_worlds.crowd_sweep,
     dict(n_clients=5000, max_crowd=5000, crowd_step=250, exact_arm=False),
     FULL_ONLY),
    ("campaign.worlds_per_s.quick", golden_worlds.micro_campaign,
     dict(n_worlds=300), ()),
    ("campaign.worlds_per_s", golden_worlds.micro_campaign,
     dict(n_worlds=2000), FULL_ONLY),
    ("campaign.cohort_worlds_per_s.quick", golden_worlds.cohort_campaign,
     dict(n_worlds=4, n_clients=200, max_crowd=120, crowd_step=20), ()),
    ("campaign.cohort_worlds_per_s", golden_worlds.cohort_campaign,
     dict(n_worlds=8, n_clients=500, max_crowd=400, crowd_step=20), FULL_ONLY),
    ("triage.request_savings.quick", golden_worlds.triage_survey,
     dict(scale=0.05), ()),
    ("triage.request_savings", golden_worlds.triage_survey,
     dict(scale=0.41), FULL_ONLY),
]


def test_every_recorded_fingerprint_is_replayed():
    replayed = [key for key, *_ in REPLAYS] + ["world.large_object_200"]
    with open(golden_worlds.GOLDEN_FINGERPRINTS) as fh:
        assert sorted(json.load(fh)) == sorted(replayed)


def test_acceptance_world_fingerprint_is_byte_stable():
    """The 200-client Large Object world, the historical acceptance
    benchmark, must reproduce its recorded fingerprint exactly."""
    got = golden_worlds.large_object(n_clients=200, max_crowd=200, crowd_step=10)
    assert got == golden_worlds.recorded("world.large_object_200")


@pytest.mark.parametrize(
    "key,replay,kwargs",
    [pytest.param(key, fn, kwargs, id=key, marks=marks)
     for key, fn, kwargs, marks in REPLAYS],
)
def test_recorded_fingerprint_replays(key, replay, kwargs):
    want = golden_worlds.recorded(key)
    got = replay(**kwargs)
    assert {field: got[field] for field in want} == want
