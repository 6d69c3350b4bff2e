"""Table 1 — MFC runs against the QTNP non-production commercial server.

Paper bands (θ=100 ms, two runs): Base stops at 20–25, Small Query at
45–55, Large Object NoStop at 55 requests.  The MFC-mr run (2 parallel
requests/client, θ=250 ms): Base 40, Small Query 90, Large Object
NoStop at 150.
"""

from benchmarks.conftest import emit
from repro.analysis.tables import TextTable
from repro.core.config import MFCConfig
from repro.core.stages import StageKind
from repro.core.variants import mfc_mr_config
from repro.server.presets import qtnp_server
from repro.workload.fleet import FleetSpec
from repro.worlds.spec import WorldSpec

FLEET = FleetSpec(n_clients=65, unresponsive_fraction=0.05)
#: the MFC-mr run needs 75+ live clients to reach 150 requests
FLEET_MR = FleetSpec(n_clients=82, unresponsive_fraction=0.05)


def run_standard(seed=1):
    runner = WorldSpec(
        scenario=qtnp_server(),
        fleet=FLEET,
        config=MFCConfig(min_clients=50, max_crowd=55),
        seed=seed,
    ).build()
    return runner.run()


def run_mfc_mr(seed=1):
    config = mfc_mr_config(
        MFCConfig(min_clients=50, crowd_step=10, initial_crowd=10),
        requests_per_client=2,
        max_crowd=150,
    )
    runner = WorldSpec(
        scenario=qtnp_server(), fleet=FLEET_MR, config=config, seed=seed
    ).build()
    return runner.run()


def run_both():
    return run_standard(), run_mfc_mr()


def test_table1_qtnp(benchmark):
    std, mr = benchmark.pedantic(run_both, rounds=1, iterations=1)

    table = TextTable(
        ["experiment", "θ", "Base", "SmallQuery", "LargeObject", "#reqs"],
        title="Table 1: QTNP stopping crowd sizes (paper: 20-25 / 45-55 / NoStop;"
        " MFC-mr: 40 / 90 / NoStop(150))",
    )
    for name, theta, result in (("MFC", "100ms", std), ("MFC-mr", "250ms", mr)):
        table.add_row(
            name,
            theta,
            result.stage(StageKind.BASE.value).describe(),
            result.stage(StageKind.SMALL_QUERY.value).describe(),
            result.stage(StageKind.LARGE_OBJECT.value).describe(),
            result.total_requests,
        )
    emit("table1_qtnp", table.render())

    # standard MFC bands
    base = std.stage(StageKind.BASE.value)
    query = std.stage(StageKind.SMALL_QUERY.value)
    large = std.stage(StageKind.LARGE_OBJECT.value)
    assert base.stopping_crowd_size is not None and 15 <= base.stopping_crowd_size <= 35
    assert query.stopping_crowd_size is not None and 35 <= query.stopping_crowd_size <= 55
    assert large.stopping_crowd_size is None  # NoStop

    # MFC-mr at the higher threshold: stops move up, bandwidth still fine
    base_mr = mr.stage(StageKind.BASE.value)
    query_mr = mr.stage(StageKind.SMALL_QUERY.value)
    large_mr = mr.stage(StageKind.LARGE_OBJECT.value)
    assert base_mr.stopping_crowd_size is not None
    assert base_mr.stopping_crowd_size > base.stopping_crowd_size
    assert query_mr.stopping_crowd_size is not None
    assert query_mr.stopping_crowd_size > query.stopping_crowd_size
    assert large_mr.stopping_crowd_size is None
    # ordering within each run: Base < SmallQuery < (LargeObject NoStop)
    assert base_mr.stopping_crowd_size < query_mr.stopping_crowd_size
