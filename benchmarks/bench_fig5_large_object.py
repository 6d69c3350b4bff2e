"""Figure 5 — Large Object lab workload: the access link is the
constraint.

Paper §3.2: every client requests the same 100 KB object; the median
response time rises significantly with crowd size while "CPU, memory,
and disk utilization remain negligible during the experiment" —
network bandwidth alone explains the degradation.
"""

from benchmarks.conftest import emit, lan_fleet, sweep_config
from repro.analysis.figures import ascii_series
from repro.analysis.tables import TextTable
from repro.core.runner import MFCRunner
from repro.core.stages import StageKind
from repro.server.presets import lab_validation_server

MAX_CROWD = 50


def run_experiment(seed=3):
    runner = MFCRunner.build(
        lab_validation_server(),
        fleet_spec=lan_fleet(MAX_CROWD + 5),
        config=sweep_config(max_crowd=MAX_CROWD),
        stages=("LargeObject",),
        monitor_interval_s=1.0,
        seed=seed,
    )
    result = runner.run()
    stage = result.stage(StageKind.LARGE_OBJECT.value)
    monitor = runner.monitor
    return stage, monitor, runner


def test_fig5_large_object(benchmark):
    stage, monitor, runner = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    series = stage.crowd_series()

    # per-epoch network throughput: peak monitor sample inside each epoch
    epochs = [e for e in stage.epochs]
    net_series = []
    for epoch in epochs:
        window = [
            v
            for t, v in monitor.series("network_Bps")
            if epoch.target_time <= t < epoch.target_time + 10.0
        ]
        net_series.append((epoch.crowd_size, max(window) / 1024.0 if window else 0.0))

    chart = ascii_series(
        {"response": [(c, v * 1000) for c, v in series]},
        title="Figure 5 (top): median response-time increase (ms) vs crowd size",
        x_label="crowd size",
        y_label="ms",
    )
    chart_net = ascii_series(
        {"network": net_series},
        title="Figure 5 (bottom): peak network usage (KB/s) vs crowd size",
        x_label="crowd size",
        y_label="KB/s",
    )
    table = TextTable(
        ["signal", "paper", "measured"],
        title="Figure 5: resource signature of the Large Object stage",
    )
    rt_rise = series[-1][1] / max(series[0][1], 1e-9)
    table.add_row("response time @50 vs @5", "large rise", f"x{rt_rise:.1f}")
    table.add_row("peak network KB/s", "~5000 (saturated)", f"{max(v for _, v in net_series):.0f}")
    table.add_row("peak CPU util", "negligible", f"{monitor.peak('cpu_util') * 100:.1f}%")
    table.add_row("peak disk util", "negligible", f"{monitor.peak('disk_util') * 100:.1f}%")
    mem_swing = (
        monitor.peak("memory_bytes") - runner.scenario.server_spec.baseline_memory_bytes
    ) / (1024 * 1024)
    table.add_row("memory swing", "negligible", f"{mem_swing:.0f} MiB")
    emit("fig5_large_object", table.render() + "\n\n" + chart + "\n\n" + chart_net)

    # shape assertions: response time rises with crowd; network usage
    # plateaus near the paper's ~5000 KB/s (epoch bytes over the 1 s
    # sampling window); every other resource stays quiet
    assert series[-1][1] > 10 * max(series[0][1], 1e-4)
    assert max(v for _, v in net_series) > 3000.0
    assert monitor.peak("cpu_util") < 0.2
    assert monitor.peak("disk_util") < 0.2
    assert mem_swing < 100.0
