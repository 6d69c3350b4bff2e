"""Shared helpers for the benchmark harness.

Every bench regenerates one table or figure from the paper.  The
rendered artifact goes to ``benchmarks/results/<name>.txt`` (and to
stdout when pytest runs with ``-s``), while pytest-benchmark captures
the wall-clock cost of the underlying experiment.

The population and ablation benches run through the campaign engine:
``MFC_BENCH_JOBS`` sets the worker-process count (default: up to 8,
bounded by the CPU count; ``1`` forces the sequential path) and
``MFC_BENCH_CACHE=0`` disables the result cache under
``benchmarks/results/cache/``.  Cache directory names embed a fingerprint
of the ``src/repro`` sources, so any code edit starts a fresh cache
and benches never validate stale results — within one code state, a
re-run reuses every finished experiment and an interrupted bench
session resumes where it stopped (cached re-runs therefore time the
store lookup, not the experiment).
"""

import functools
import hashlib
import os
import pathlib

import pytest

from repro.core.config import MFCConfig
from repro.workload.fleet import FleetSpec, lan_fleet as _lan_fleet
from repro.worlds import SyntheticSpec, WorldSpec

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: a threshold no epoch crosses: turns the MFC into a pure crowd sweep
SWEEP_THRESHOLD_S = 1e6


def bench_jobs():
    """Worker-process count for campaign-driven benches (None = sequential)."""
    env = os.environ.get("MFC_BENCH_JOBS")
    if env is not None:
        count = int(env)
    else:
        count = min(os.cpu_count() or 1, 8)
    return count if count > 1 else None


@functools.lru_cache(maxsize=1)
def _code_fingerprint() -> str:
    """Digest of the library sources backing the cached results."""
    src = pathlib.Path(__file__).parent.parent / "src" / "repro"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def bench_cache(name: str):
    """Per-bench result-store directory (None when caching is off)."""
    if os.environ.get("MFC_BENCH_CACHE", "1").lower() in ("0", "no", "off"):
        return None
    return RESULTS_DIR / "cache" / f"{name}-{_code_fingerprint()}.d"


def emit(name: str, text: str) -> None:
    """Persist one bench's rendered artifact and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n=== {name} ===\n{text}\n[written to {path}]")


def lan_fleet(n_clients: int, rtt: float = 0.002) -> FleetSpec:
    """The §3 lab setting (now a shipped fleet preset in the world layer)."""
    return _lan_fleet(n_clients, rtt=rtt)


def sweep_config(max_crowd: int, step: int = 5, **overrides) -> MFCConfig:
    """MFC config that sweeps crowds without ever stopping."""
    defaults = dict(
        threshold_s=SWEEP_THRESHOLD_S,
        initial_crowd=step,
        crowd_step=step,
        max_crowd=max_crowd,
        min_clients=1,
    )
    defaults.update(overrides)
    return MFCConfig(**defaults)


def synthetic_world(
    model: str,
    params: dict,
    n_clients: int,
    config: MFCConfig,
    seed: int = 0,
    server_access_bps: float = 1e9,
) -> WorldSpec:
    """Declarative world around a registered synthetic-server model.

    *model*/*params* name an entry of the world layer's
    ``SYNTHETIC_MODELS`` registry; ``.build()`` on the returned spec
    yields a ready-to-run ``MFCRunner`` with the one fixed probe stage.
    """
    return WorldSpec(
        synthetic=SyntheticSpec(
            model=model, params=dict(params), server_access_bps=server_access_bps
        ),
        fleet=lan_fleet(n_clients),
        config=config,
        seed=seed,
    )


@pytest.fixture
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR
