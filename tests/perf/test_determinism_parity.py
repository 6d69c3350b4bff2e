"""Determinism parity: refactored substrate vs the frozen seed layers.

The hot-path refactors must be *behaviour-preserving*: a world built
on the refactored substrate has to produce an ``MFCResult``
byte-identical to one built on the frozen seed implementation.  Two
frozen references exist, one per refactored layer:

- ``repro/net/_seed_reference.py`` — the pre-refactor ``Network``
  (active-link-set allocator, incremental link aggregates);
- ``repro/sim/_seed_kernel.py`` — the pre-wheel simulation kernel
  (single ``(when, eid, obj)`` heap).

This is not only a refactor-safety check — the campaign result caches
committed under ``benchmarks/results/cache/`` are keyed by world
parameters, not by code version, and the world fingerprints recorded
in ``BENCH_world.json`` are the determinism baseline ``repro perf``
reports drift against — so any behaviour change would silently
invalidate both.

Each parity test swaps one frozen layer into the world assembly point
and compares full-detail encodings (every epoch, every client report,
every float) across a matrix of scenarios × seeds.  The fingerprint
tests re-run the recorded bench worlds and require byte-identical
hashes; the cheap acceptance world runs in tier-1, the crowd-scale
ones under ``REPRO_PARITY_FULL=1`` (the CI kernel-parity job).
"""

import hashlib
import json
import os

import pytest

import repro.net.topology as topology_module
import repro.sim.kernel as kernel_module
from repro.campaign.codec import encode_result
from repro.core.config import MFCConfig
from repro.core.runner import MFCRunner
from repro.core.stages import StageKind
from repro.faults.spec import FAULT_PRESETS
from repro.net import _seed_reference
from repro.server import presets
from repro.sim import _seed_kernel
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
    runner = MFCRunner.build(
        scenario_factory(),
        fleet_spec=FleetSpec(n_clients=30),
        config=config,
        stages=(stage_kind.value,),
        seed=seed,
    )
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
    monkeypatch.setattr(topology_module, "Network", _seed_reference.Network)
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
    spec = WorldSpec(
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
        crowd_mode=None if mode == "exact" else mode,
        faults=FAULT_PRESETS[fault]() if fault else None,
        **extra,
    )
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
    monkeypatch.setattr(kernel_module, "Simulator", _seed_kernel.Simulator)
    reference = _canonical(_run_world(scenario_factory, stage_kind, seed))
    assert wheel == reference


# -- recorded world fingerprints must stay byte-stable ------------------------

_WORLD_BENCH = os.path.join(os.path.dirname(__file__), "..", "..", "BENCH_world.json")


def _recorded_fingerprint(key: str) -> str:
    with open(_WORLD_BENCH) as fh:
        return json.load(fh)["benches"][key]["fingerprint"]


def test_acceptance_world_fingerprint_is_byte_stable():
    """The committed ``world.large_object_200`` fingerprint must
    reproduce exactly on the current kernel."""
    from repro.perf.benches import bench_world

    record = bench_world(n_clients=200, max_crowd=200, crowd_step=10, repeats=1)
    assert record["fingerprint"] == _recorded_fingerprint("world.large_object_200")


@pytest.mark.skipif(
    not os.environ.get("REPRO_PARITY_FULL"),
    reason="crowd-scale fingerprint replay only runs with REPRO_PARITY_FULL=1",
)
@pytest.mark.parametrize(
    "key,kwargs",
    [
        ("world.large_object_500", dict(n_clients=500, max_crowd=400, crowd_step=20)),
        ("world.large_object_1000", dict(n_clients=1000, max_crowd=600, crowd_step=30)),
    ],
)
def test_crowd_scale_world_fingerprints_are_byte_stable(key, kwargs):
    from repro.perf.benches import bench_world

    record = bench_world(repeats=1, **kwargs)
    assert record["fingerprint"] == _recorded_fingerprint(key)


@pytest.mark.skipif(
    not os.environ.get("REPRO_PARITY_FULL"),
    reason="crowd-scale fingerprint replay only runs with REPRO_PARITY_FULL=1",
)
def test_crowd_2000_fingerprints_are_byte_stable():
    """Both arms of ``world.crowd_2000``: the cohort fingerprint and
    the exact per-client fan-out's ``exact_fingerprint``."""
    from repro.perf.benches import bench_crowd

    record = bench_crowd(n_clients=2000, max_crowd=2000, crowd_step=100, repeats=1)
    with open(_WORLD_BENCH) as fh:
        recorded = json.load(fh)["benches"]["world.crowd_2000"]
    assert record["fingerprint"] == recorded["fingerprint"]
    assert record["exact_fingerprint"] == recorded["exact_fingerprint"]


@pytest.mark.skipif(
    not os.environ.get("REPRO_PARITY_FULL"),
    reason="crowd-scale fingerprint replay only runs with REPRO_PARITY_FULL=1",
)
def test_bisect_ramp_fingerprint_is_byte_stable():
    from repro.perf.benches import bench_bisect_ramp

    record = bench_bisect_ramp(
        n_clients=200, max_crowd=200, crowd_step=5, repeats=1
    )
    assert record["fingerprint"] == _recorded_fingerprint("world.bisect_ramp")
