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

import json
import os

import pytest

import repro.net.topology as topology_module
import repro.sim.kernel as kernel_module
from repro.campaign.codec import encode_result
from repro.core.config import MFCConfig
from repro.core.runner import MFCRunner
from repro.core.stages import StageKind
from repro.net import _seed_reference
from repro.server import presets
from repro.sim import _seed_kernel
from repro.workload.fleet import FleetSpec


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
def test_bisect_ramp_fingerprint_is_byte_stable():
    from repro.perf.benches import bench_bisect_ramp

    record = bench_bisect_ramp(
        n_clients=200, max_crowd=200, crowd_step=5, repeats=1
    )
    assert record["fingerprint"] == _recorded_fingerprint("world.bisect_ramp")
