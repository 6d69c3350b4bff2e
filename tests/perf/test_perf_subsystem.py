"""Unit tests for the perf benches, baseline machinery and perf gate."""

import json
import types

import pytest

from repro.perf import (
    bench_allocator,
    bench_allocator_sync_crowd,
    bench_kernel_cascade,
    bench_kernel_timers,
    compare_to_baseline,
    find_regressions,
    load_bench_file,
    write_bench_file,
)
from repro.perf.baseline import render_comparison


def test_kernel_benches_report_throughput():
    rec = bench_kernel_timers(n_events=2_000, repeats=1)
    assert rec["events"] == 2_000
    assert rec["seconds"] > 0
    assert rec["slowdown"] > 0
    assert rec["normalised_seconds"] > 0
    assert rec["events_per_s"] == pytest.approx(2_000 / rec["seconds"])
    cascade = bench_kernel_cascade(n_events=2_000, repeats=1)
    assert cascade["seconds"] > 0


def test_allocator_bench_counts_recomputes():
    rec = bench_allocator(n_flows=5, n_idle_links=20, n_rounds=2, repeats=1)
    # measured from Network.allocations: joins (eager, outside the
    # event loop) + one batched completion sweep per round
    assert rec["recomputes"] == 2 * (5 + 1)
    assert rec["us_per_recompute"] > 0


def test_sync_crowd_bench_coalesces_at_least_5x():
    """The acceptance criterion: a synchronized crowd folds ≥5x more
    per-event recomputes into its end-of-instant passes."""
    rec = bench_allocator_sync_crowd(n_clients=50, n_rounds=3, repeats=1)
    # two allocator passes per round: the crowd's join instant and the
    # batched completion sweep
    assert rec["recomputes"] == 2 * 3
    assert rec["per_event_recomputes"] == 3 * (50 + 1)
    assert rec["coalescing_factor"] >= 5.0


def _rec(seconds, slowdown=1.0, params=None):
    """A bench record measured at *slowdown* (median-of-one trial)."""
    return {
        "seconds": seconds,
        "slowdown": slowdown,
        "normalised_seconds": seconds / slowdown,
        "params": params or {},
    }


def test_find_regressions_flags_only_threshold_breaches():
    rows = compare_to_baseline(
        {
            "slow": _rec(2.0),
            "ok": _rec(1.1),
            "fresh": _rec(9.9),  # no baseline entry
        },
        {
            "slow": _rec(1.0),
            "ok": _rec(1.0),
        },
    )
    regs = find_regressions(rows, max_regression=0.25)
    assert [r["key"] for r in regs] == ["slow"]
    assert regs[0]["ratio"] == pytest.approx(2.0)
    # a generous threshold clears everything
    assert find_regressions(rows, max_regression=2.0) == []
    with pytest.raises(ValueError):
        find_regressions(rows, max_regression=-0.1)


def test_bench_file_roundtrip(tmp_path):
    path = str(tmp_path / "BENCH_test.json")
    payload = {"k": {"seconds": 1.5, "params": {"n": 3}}}
    write_bench_file(path, payload)
    assert load_bench_file(path) == payload
    assert load_bench_file(str(tmp_path / "missing.json")) is None


def test_bench_file_rejects_unknown_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": 99, "benches": {}}))
    with pytest.raises(ValueError, match="schema"):
        load_bench_file(str(path))


def test_compare_matches_only_identical_params():
    current = {
        "a": _rec(1.0, params={"n": 10}),
        "b": _rec(2.0, params={"n": 10}),
    }
    baseline = {
        "a": _rec(3.0, params={"n": 10}),
        "b": _rec(9.0, params={"n": 20}),  # incomparable
    }
    rows = {r["key"]: r for r in compare_to_baseline(current, baseline)}
    assert rows["a"]["speedup"] == pytest.approx(3.0)
    assert rows["b"]["speedup"] is None
    assert rows["b"]["baseline_normalised_seconds"] is None


def test_compare_needs_normalised_baseline_seconds():
    """A baseline entry without normalised seconds is incomparable."""
    rows = compare_to_baseline(
        {"a": _rec(1.0)}, {"a": {"seconds": 3.0, "params": {}}}
    )
    assert rows[0]["baseline_normalised_seconds"] is None
    assert find_regressions(rows) == []


def test_regressions_compare_normalised_seconds():
    """Twice the seconds on a machine twice as slow is no regression;
    the same seconds on a machine twice as fast is one."""
    baseline = {"k": _rec(1.0)}
    slow_machine = compare_to_baseline({"k": _rec(2.0, slowdown=2.0)}, baseline)
    assert slow_machine[0]["speedup"] == pytest.approx(1.0)
    assert find_regressions(slow_machine) == []
    fast_machine = compare_to_baseline({"k": _rec(1.0, slowdown=0.5)}, baseline)
    regs = find_regressions(fast_machine)
    assert [r["key"] for r in regs] == ["k"]
    assert regs[0]["ratio"] == pytest.approx(2.0)


def test_normalised_seconds_pair_each_trial_with_its_reading(monkeypatch):
    """A trial is divided by the reading taken just before it, and the
    record keeps the median of those quotients."""
    import repro.perf.benches as benches

    readings = iter([1.0, 3.0, 2.0])  # in REFERENCE_LOOP_S units
    monkeypatch.setattr(
        benches, "reference_loop",
        lambda: next(readings) * benches.REFERENCE_LOOP_S,
    )
    clock = iter([0.0, 1.0, 10.0, 13.0, 20.0, 22.0])
    monkeypatch.setattr(
        benches, "time", types.SimpleNamespace(perf_counter=lambda: next(clock))
    )
    timing = benches._timed(3, lambda: None)
    # trials of 1, 3 and 2 s at slowdowns 1, 3 and 2: all 1 s normalised
    assert timing == {
        "seconds": 1.0,
        "slowdown": 2.0,
        "normalised_seconds": pytest.approx(1.0),
    }


def test_render_comparison_shows_normalised_speedup():
    rows = compare_to_baseline({"k": _rec(1.0, slowdown=2.0)}, {"k": _rec(1.0)})
    row = render_comparison(rows).splitlines()[-1]
    assert row.split() == ["k", "1.0000", "2.00", "0.5000", "1.0000", "2.00x"]


def _canned_suites(monkeypatch):
    """Patch the bench suite so CLI gate tests run in microseconds."""
    import repro.perf as perf_pkg

    benches = {
        "kernel.timers.quick": _rec(1.0, params={"n": 1}),
        "allocator.flows_10.quick": _rec(1.0, params={"n": 2}),
    }
    monkeypatch.setattr(perf_pkg, "run_kernel_suite", lambda quick=False: benches)
    return benches


def _doctor(benches, scale, prefix=""):
    """*benches* with the normalised seconds of keys under *prefix*
    scaled by *scale*."""
    return {
        key: {
            **rec,
            "normalised_seconds": rec["normalised_seconds"]
            * (scale if key.startswith(prefix) else 1.0),
        }
        for key, rec in benches.items()
    }


def _write_baseline(path, benches, scale=1.0):
    write_bench_file(str(path), _doctor(benches, scale))


def test_perf_check_exits_nonzero_on_doctored_regressed_baseline(
    monkeypatch, tmp_path, capsys
):
    """The acceptance criterion: feeding --check a baseline that makes
    the current numbers look >25% slower must exit nonzero."""
    from repro.cli import main

    benches = _canned_suites(monkeypatch)
    baseline = tmp_path / "BENCH_baseline.json"
    # doctor the baseline to half the current time → 2x "regression"
    _write_baseline(baseline, benches, scale=0.5)
    code = main(
        [
            "perf", "--quick", "--check", "--no-root-mirror",
            "--out", str(tmp_path / "results"),
            "--baseline", str(baseline),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "perf regression" in err


def test_perf_check_passes_against_honest_baseline(monkeypatch, tmp_path):
    from repro.cli import main

    benches = _canned_suites(monkeypatch)
    baseline = tmp_path / "BENCH_baseline.json"
    _write_baseline(baseline, benches, scale=1.0)
    code = main(
        [
            "perf", "--quick", "--check", "--no-root-mirror",
            "--out", str(tmp_path / "results"),
            "--baseline", str(baseline),
        ]
    )
    assert code == 0


def test_perf_check_respects_max_regression_flag(monkeypatch, tmp_path):
    from repro.cli import main

    benches = _canned_suites(monkeypatch)
    baseline = tmp_path / "BENCH_baseline.json"
    _write_baseline(baseline, benches, scale=0.5)  # current looks 2x slower
    code = main(
        [
            "perf", "--quick", "--check", "--no-root-mirror",
            "--max-regression", "1.5",  # allow up to 2.5x
            "--out", str(tmp_path / "results"),
            "--baseline", str(baseline),
        ]
    )
    assert code == 0


def test_perf_check_keys_scopes_the_timing_gate(monkeypatch, tmp_path):
    """--check-keys gates only matching benches: an allocator-bench
    'regression' passes a gate scoped to kernel., and fails an
    unscoped one."""
    from repro.cli import main

    benches = _canned_suites(monkeypatch)
    baseline = tmp_path / "BENCH_baseline.json"
    # doctor only the allocator bench into a regression
    write_bench_file(str(baseline), _doctor(benches, 0.1, prefix="allocator."))
    scoped = [
        "perf", "--quick", "--check", "--no-root-mirror",
        "--check-keys", "kernel.",
        "--out", str(tmp_path / "results"),
        "--baseline", str(baseline),
    ]
    assert main(scoped) == 0
    unscoped = [a for a in scoped if a not in ("--check-keys", "kernel.")]
    assert main(unscoped) == 1


def test_perf_check_fails_without_baseline(monkeypatch, tmp_path):
    from repro.cli import main

    _canned_suites(monkeypatch)
    code = main(
        [
            "perf", "--quick", "--check", "--no-root-mirror",
            "--out", str(tmp_path / "results"),
            "--baseline", str(tmp_path / "missing.json"),
        ]
    )
    assert code == 1


def test_perf_mirrors_bench_files_to_project_root(monkeypatch, tmp_path):
    """The cross-PR trajectory record: a root-level BENCH_kernel.json
    copy lands in the project root resolved from --out, regardless of
    the cwd."""
    import os

    from repro.cli import main

    _canned_suites(monkeypatch)
    repo = tmp_path / "repo"
    (repo / "benchmarks").mkdir(parents=True)
    (repo / "pyproject.toml").write_text("")  # the root marker
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)  # cwd must NOT receive the mirrors
    out = repo / "benchmarks" / "results"
    code = main(["perf", "--out", str(out)])
    assert code == 0
    assert load_bench_file(str(out / "BENCH_kernel.json"))
    # the mirrored root copy exists and matches the --out payload
    assert load_bench_file(str(repo / "BENCH_kernel.json")) == load_bench_file(
        str(out / "BENCH_kernel.json")
    )
    assert not os.path.exists(elsewhere / "BENCH_kernel.json")
    assert not os.path.exists(repo / "BENCH_baseline.json")


def test_perf_mirror_skipped_outside_any_project(monkeypatch, tmp_path):
    """No project root above --out → no stray mirror files."""
    import os

    from repro.cli import main

    _canned_suites(monkeypatch)
    monkeypatch.chdir(tmp_path)
    code = main(["perf", "--out", str(tmp_path / "results")])
    assert code == 0
    assert not os.path.exists(tmp_path / "BENCH_kernel.json")


def test_perf_quick_never_overwrites_root_mirror(monkeypatch, tmp_path):
    """--quick smoke payloads must not replace the committed
    full-suite trajectory record at the project root."""
    from repro.cli import main

    _canned_suites(monkeypatch)
    repo = tmp_path / "repo"
    (repo / "benchmarks").mkdir(parents=True)
    (repo / "pyproject.toml").write_text("")
    committed = {"k": {"seconds": 1.0, "params": {"full": True}}}
    write_bench_file(str(repo / "BENCH_kernel.json"), committed)
    code = main(["perf", "--quick", "--out", str(repo / "benchmarks" / "results")])
    assert code == 0
    # the root record is untouched by the quick run
    assert load_bench_file(str(repo / "BENCH_kernel.json")) == committed


def test_perf_check_fails_when_nothing_was_comparable(monkeypatch, tmp_path):
    """A gate that compared zero benches (typo'd prefix, renamed
    benches) must fail loudly, not pass vacuously."""
    from repro.cli import main

    benches = _canned_suites(monkeypatch)
    baseline = tmp_path / "BENCH_baseline.json"
    _write_baseline(baseline, benches, scale=0.01)  # wildly regressed
    code = main(
        [
            "perf", "--quick", "--check", "--no-root-mirror",
            "--check-keys", "kernal.",  # typo: matches nothing
            "--out", str(tmp_path / "results"),
            "--baseline", str(baseline),
        ]
    )
    assert code == 1


def test_committed_baseline_rows_carry_normalised_seconds():
    import os

    from repro.perf.benches import bench_factories

    repo_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    baseline = load_bench_file(
        os.path.join(repo_root, "benchmarks", "results", "BENCH_baseline.json")
    )
    assert baseline is not None
    # exactly the registered benches, full and quick, each comparable
    assert sorted(baseline) == sorted({**bench_factories(), **bench_factories(quick=True)})
    for record in baseline.values():
        assert record["slowdown"] > 0
        assert record["normalised_seconds"] > 0
