"""Table 3 (and Univ-1) — MFC against the three university servers.

Paper signatures:

- **Univ-1** (standard MFC, θ=100 ms): Base and Small Query stop at
  the earliest measurable crowd (5); Large Object at 25 — "poorly
  provisioned in general, with bandwidth provisioned better than the
  rest".
- **Univ-2** (MFC-mr, θ=250 ms): every stage stops (or nearly stops)
  at 110–150 *including* Large Object on a 1 Gbps link — a software
  configuration artifact, not a hardware resource.
- **Univ-3** (MFC-mr, θ=250 ms): Small Query stops at 30 in every run
  (no response caching); Large Object never stops; the Base stop moves
  with background traffic (morning 20.3 req/s vs evening 12.5 req/s).
"""

from benchmarks.conftest import bench_cache, bench_jobs, emit
from repro.analysis.tables import TextTable
from repro.campaign import CampaignSpec, JobSpec, run_campaign
from repro.core.config import MFCConfig
from repro.core.inference import infer_constraints
from repro.core.stages import StageKind
from repro.core.records import StageOutcome
from repro.core.variants import mfc_mr_config
from repro.server.presets import univ1_server, univ2_server, univ3_server
from repro.workload.fleet import FleetSpec
from repro.worlds import WorldSpec

FLEET = FleetSpec(n_clients=82, unresponsive_fraction=0.05)
UNIV3_RATES = (20.3, 18.7, 12.5)


def _mr_config():
    return mfc_mr_config(
        MFCConfig(min_clients=50, crowd_step=10, initial_crowd=10),
        requests_per_client=2,
        max_crowd=150,
    )


def university_jobs():
    """The five §4.2 runs as one campaign (all mutually independent)."""
    worlds = [
        (
            "univ1|seed11",
            WorldSpec(
                scenario=univ1_server(),
                fleet=FleetSpec(n_clients=60, unresponsive_fraction=0.05),
                config=MFCConfig(min_clients=50, max_crowd=50),
                seed=11,
            ),
        ),
        (
            "univ2|seed12",
            WorldSpec(
                scenario=univ2_server(), fleet=FLEET, config=_mr_config(), seed=12
            ),
        ),
    ]
    for rps in UNIV3_RATES:
        worlds.append(
            (
                f"univ3|bg{rps}|seed13",
                WorldSpec(
                    scenario=univ3_server().with_background(rps),
                    fleet=FLEET,
                    config=_mr_config(),
                    seed=13,
                ),
            )
        )
    return [JobSpec.from_world(job_id, world) for job_id, world in worlds]


def run_all():
    outcomes = run_campaign(
        CampaignSpec(name="table3-universities", jobs=university_jobs()),
        jobs=bench_jobs(),
        store=bench_cache("table3_universities"),
    )
    u1, u2, *u3 = [o.result for o in outcomes]
    return u1, u2, dict(zip(UNIV3_RATES, u3))


def stage_cell(result, kind):
    return result.stage(kind.value).describe()


def test_table3_universities(benchmark):
    u1, u2, u3_by_rate = benchmark.pedantic(run_all, rounds=1, iterations=1)

    table = TextTable(
        ["server", "config", "bg req/s", "Base", "SmallQuery", "LargeObject"],
        title="Table 3 (+Univ-1): university-server stopping crowd sizes",
    )
    table.add_row(
        "Univ-1", "MFC θ=100ms", 0.15,
        stage_cell(u1, StageKind.BASE),
        stage_cell(u1, StageKind.SMALL_QUERY),
        stage_cell(u1, StageKind.LARGE_OBJECT),
    )
    table.add_row(
        "Univ-2", "MFC-mr θ=250ms", 3.5,
        stage_cell(u2, StageKind.BASE),
        stage_cell(u2, StageKind.SMALL_QUERY),
        stage_cell(u2, StageKind.LARGE_OBJECT),
    )
    for rps, result in u3_by_rate.items():
        table.add_row(
            "Univ-3", "MFC-mr θ=250ms", rps,
            stage_cell(result, StageKind.BASE),
            stage_cell(result, StageKind.SMALL_QUERY),
            stage_cell(result, StageKind.LARGE_OBJECT),
        )
    diag = infer_constraints(u2).diagnoses
    emit(
        "table3_universities",
        table.render() + "\n\nUniv-2 inference: " + " | ".join(diag),
    )

    # Univ-1: everything folds early, bandwidth last
    u1_base = u1.stage(StageKind.BASE.value)
    u1_query = u1.stage(StageKind.SMALL_QUERY.value)
    u1_large = u1.stage(StageKind.LARGE_OBJECT.value)
    assert u1_base.stopping_crowd_size == 15  # formal minimum
    assert u1_base.earliest_degraded_crowd == 5  # the footnote-2 analysis
    assert u1_query.stopping_crowd_size == 15
    assert u1_large.outcome is StageOutcome.STOPPED
    assert u1_large.stopping_crowd_size > u1_base.stopping_crowd_size

    # Univ-2: ALL stages stop in one narrow band (110-150)
    stops = [
        u2.stage(k.value).stopping_crowd_size
        for k in (StageKind.BASE, StageKind.SMALL_QUERY, StageKind.LARGE_OBJECT)
    ]
    assert all(s is not None for s in stops)
    assert all(100 <= s <= 150 for s in stops)
    assert any("serialization" in d or "software" in d for d in diag)

    # Univ-3: query handling is the weak spot in every run; bandwidth
    # never is; base stop worsens with background traffic
    for rps, result in u3_by_rate.items():
        q = result.stage(StageKind.SMALL_QUERY.value)
        assert q.stopping_crowd_size is not None and q.stopping_crowd_size <= 40
        assert result.stage(StageKind.LARGE_OBJECT.value).stopping_crowd_size is None

    def base_stop(result):
        stage = result.stage(StageKind.BASE.value)
        return stage.stopping_crowd_size or 10_000  # NoStop sorts last

    assert base_stop(u3_by_rate[20.3]) <= base_stop(u3_by_rate[12.5])
