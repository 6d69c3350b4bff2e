"""Figure 3 — request arrival times at the target for a 45-client MFC.

Paper: "About 70% of the requests arrive within 5 ms of each other
(clients 7 through 40), and 90% of the requests arrive within 30 ms of
each other (clients 3 through 43), indicating that our synchronization
algorithm works quite well."  The validation target sat at UW-Madison
with the clients on PlanetLab; we reproduce with the synthetic fleet
and read arrivals off the server access log.
"""

from benchmarks.conftest import emit, sweep_config
from repro.analysis.figures import ascii_series
from repro.analysis.tables import TextTable
from repro.core.stages import StageKind
from repro.server.presets import lab_validation_server
from repro.workload.fleet import FleetSpec
from repro.worlds.spec import WorldSpec

CROWD = 45


def run_experiment(seed=1):
    runner = WorldSpec(
        scenario=lab_validation_server(),
        fleet=FleetSpec(
            n_clients=65,
            unresponsive_fraction=0.0,
            jitter_range=(0.01, 0.05),
        ),
        config=sweep_config(max_crowd=CROWD, step=CROWD, min_clients=50),
        stages=("Base",),
        seed=seed,
    ).build()
    result = runner.run()
    stage = result.stage(StageKind.BASE.value)
    epoch = next(e for e in stage.epochs if e.crowd_size == CROWD)
    # epoch requests arrive around target_time T; base measurements are
    # long gone by then
    log = runner.server.access_log
    window = log.mfc_records(
        log.in_window(epoch.target_time - 0.5, epoch.target_time + 5.0)
    )
    offsets = log.arrival_offsets(window)
    return offsets


def analyze(offsets):
    n = len(offsets)
    mid70 = offsets[int(n * 0.85)] - offsets[int(n * 0.15)]
    mid90 = offsets[int(n * 0.95)] - offsets[int(n * 0.05)]
    return mid70, mid90


def test_fig3_synchronization(benchmark):
    offsets = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    mid70, mid90 = analyze(offsets)

    table = TextTable(
        ["metric", "paper", "measured"],
        title="Figure 3: arrival-time spread, crowd of 45",
    )
    table.add_row("requests arrived", "45", len(offsets))
    table.add_row("middle 70% spread", "≤ 5 ms", f"{mid70 * 1000:.1f} ms")
    table.add_row("middle 90% spread", "≤ 30 ms", f"{mid90 * 1000:.1f} ms")
    chart = ascii_series(
        {"arrival": [(i, off * 1000.0) for i, off in enumerate(offsets)]},
        title="arrival time vs client request index (ms, cf. paper Fig. 3)",
        x_label="client request index",
        y_label="arrival offset (ms)",
    )
    emit("fig3_synchronization", table.render() + "\n\n" + chart)

    assert len(offsets) >= CROWD * 0.9  # nearly all commands landed
    # shape: tight synchronization, middle mass far tighter than tails
    assert mid70 < 0.050
    assert mid90 < 0.150
