"""Table 2 — synchronization of MFC-mr requests at the QTP production
data center.

Paper: 75 clients × 5 parallel requests against 16 load-balanced
servers; per epoch the table reports requests scheduled, requests seen
in the merged server logs, and the time spread of the middle 90% of
arrivals (0.15–0.42 s for Base/Small Query, up to ~3.3 s for Large
Object).  No stage moved the median response time by even 10 ms.
"""

from benchmarks.conftest import emit, sweep_config
from repro.analysis.tables import TextTable
from repro.core.runner import MFCRunner
from repro.core.stages import StageKind
from repro.core.records import EpochLabel
from repro.server.presets import qtp_cluster
from repro.workload.fleet import FleetSpec

REQUESTS_PER_CLIENT = 5
FLEET = FleetSpec(n_clients=80, unresponsive_fraction=0.05)


def run_stage(kind, seed=7):
    config = sweep_config(
        max_crowd=375,
        step=25,
        min_clients=50,
        requests_per_client=REQUESTS_PER_CLIENT,
    )
    runner = MFCRunner.build(
        qtp_cluster(),
        fleet_spec=FLEET,
        config=config,
        stages=(kind.value,),
        control_loss_prob=0.02,  # a lossy control plane loses commands
        seed=seed,
    )
    result = runner.run()
    stage = result.stage(kind.value)
    log = runner.combined_access_log()
    rows = []
    for epoch in stage.epochs:
        if epoch.label is not EpochLabel.NORMAL:
            continue
        window = log.mfc_records(
            log.in_window(epoch.target_time - 0.5, epoch.target_time + 9.0)
        )
        spread = log.spread_middle_fraction(window, fraction=0.9)
        rows.append((epoch.crowd_size, len(window), spread, epoch.aggregate_normalized_s))
    return rows


def run_all():
    return {
        kind: run_stage(kind)
        for kind in (StageKind.BASE, StageKind.SMALL_QUERY, StageKind.LARGE_OBJECT)
    }


def test_table2_qtp_spread(benchmark):
    per_stage = benchmark.pedantic(run_all, rounds=1, iterations=1)

    table = TextTable(
        ["stage", "scheduled", "in logs", "90% spread (s)", "median Δrt (ms)"],
        title="Table 2: QTP MFC-mr request synchronization "
        "(paper spreads: 0.15-1.05 s Base/Query, 0.48-3.28 s LargeObject)",
    )
    for kind, rows in per_stage.items():
        for scheduled, received, spread, med in rows:
            table.add_row(
                kind.value, scheduled, received, f"{spread:.2f}", f"{med * 1000:.1f}"
            )
    emit("table2_qtp_spread", table.render())

    for kind, rows in per_stage.items():
        # epochs reach the paper's 375-request scale
        assert rows[-1][0] == 375
        for scheduled, received, spread, med in rows:
            # most scheduled requests appear in the merged logs (a few
            # are lost to the no-retransmit control plane)
            assert received >= 0.85 * scheduled
            assert received <= scheduled
            # the production cluster never degrades: paper saw not even
            # a 10 ms median increase
            assert med < 0.010
        # synchronization quality: sub-second 90% spreads for the light
        # stages; Large Object may stretch (bulk transfers), like the
        # paper's 3.28 s worst case
        spreads = [s for _, _, s, _ in rows]
        if kind is not StageKind.LARGE_OBJECT:
            assert max(spreads) < 1.5
        else:
            assert max(spreads) < 5.0
