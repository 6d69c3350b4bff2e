"""Figure 6 — Small Query lab workload: FastCGI vs Mongrel.

Paper §3.2: the same 50 000-row query through two backends.

- Mongrel: "the response time stays within 10 ms for crowd sizes up to
  50; the CPU utilization and memory usage stayed constant and low".
- FastCGI: fork-per-request inherits the parent memory image →
  "memory usage on the server to increase dramatically with the crowd
  size … client response time also increased significantly".
"""

from benchmarks.conftest import emit, lan_fleet, sweep_config
from repro.analysis.figures import ascii_series
from repro.analysis.tables import TextTable
from repro.core.runner import MFCRunner
from repro.core.stages import StageKind
from repro.server.presets import lab_validation_server

MAX_CROWD = 50


def run_backend(backend_kind, seed=4):
    runner = MFCRunner.build(
        lab_validation_server(backend_kind),
        fleet_spec=lan_fleet(MAX_CROWD + 5),
        config=sweep_config(max_crowd=MAX_CROWD),
        stages=("SmallQuery",),
        monitor_interval_s=1.0,
        seed=seed,
    )
    result = runner.run()
    stage = result.stage(StageKind.SMALL_QUERY.value)
    monitor = runner.monitor

    mem_series = []
    for epoch in stage.epochs:
        window = [
            v
            for t, v in monitor.series("memory_bytes")
            if epoch.target_time <= t < epoch.target_time + 10.0
        ]
        mem_series.append(
            (epoch.crowd_size, (max(window) if window else 0.0) / (1024 * 1024))
        )
    return stage.crowd_series(), mem_series, monitor


def run_both():
    return run_backend("fastcgi"), run_backend("mongrel")


def test_fig6_small_query(benchmark):
    (fcgi_rt, fcgi_mem, fcgi_mon), (mon_rt, mon_mem, mon_mon) = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )

    chart_rt = ascii_series(
        {
            "fastcgi": [(c, v * 1000) for c, v in fcgi_rt],
            "mongrel": [(c, v * 1000) for c, v in mon_rt],
        },
        title="Figure 6 (top): median response-time increase (ms) vs crowd size",
        x_label="crowd size",
        y_label="ms",
    )
    chart_mem = ascii_series(
        {"fastcgi": fcgi_mem, "mongrel": mon_mem},
        title="Figure 6 (bottom): server memory usage (MiB) vs crowd size",
        x_label="crowd size",
        y_label="MiB",
    )
    table = TextTable(
        ["signal", "paper", "fastcgi", "mongrel"],
        title="Figure 6: FastCGI inefficiency vs Mongrel",
    )
    table.add_row(
        "response increase @50",
        "~2000 ms vs <10 ms",
        f"{fcgi_rt[-1][1] * 1000:.0f} ms",
        f"{mon_rt[-1][1] * 1000:.0f} ms",
    )
    table.add_row(
        "peak memory",
        "~1000 MiB vs flat",
        f"{max(m for _, m in fcgi_mem):.0f} MiB",
        f"{max(m for _, m in mon_mem):.0f} MiB",
    )
    table.add_row(
        "peak CPU",
        "rises vs low",
        f"{fcgi_mon.peak('cpu_util') * 100:.0f}%",
        f"{mon_mon.peak('cpu_util') * 100:.0f}%",
    )
    emit("fig6_small_query", table.render() + "\n\n" + chart_rt + "\n\n" + chart_mem)

    # Mongrel: flat and fast (paper: within 10 ms up to 50)
    assert mon_rt[-1][1] < 0.050
    assert max(m for _, m in mon_mem) < 400.0
    # FastCGI: memory blow-up beyond RAM drives a big response-time rise
    assert max(m for _, m in fcgi_mem) > 700.0
    assert fcgi_rt[-1][1] > 10 * max(mon_rt[-1][1], 1e-3)
    # crossover: both behave at small crowds
    assert fcgi_rt[0][1] < 0.1
