"""``BENCHMARK.json`` holds the shape every later change is judged by."""

import json
import re

import pytest

from measure import BENCH, ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_top_level_keys():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60


def test_paths_and_command_stay_inside_the_benchmark():
    for path in SPEC["paths"]:
        assert re.fullmatch(r"[A-Za-z0-9_.\-/]{1,200}", path)
        assert (ROOT / path).is_dir()
        for item in (ROOT / path).rglob("*"):
            assert not item.is_symlink(), item
    command = SPEC["command"]
    assert 1 <= len(command) <= 32 and all(len(arg) <= 200 for arg in command)
    for arg in command[1:]:
        assert not arg.startswith("/") and ".." not in arg.split("/")
        assert any(arg.startswith(path) for path in SPEC["paths"])


def test_workloads():
    workloads = SPEC["workloads"]
    assert 2 <= len(workloads) <= 8
    for workload in workloads:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200


def test_metrics():
    end_to_end, per_layer = SPEC["end_to_end"], SPEC["per_layer"]
    assert 1 <= len(end_to_end) <= 16 and 1 <= len(per_layer) <= 128
    for metric in end_to_end:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in per_layer:
        assert set(metric) == {"name", "unit", "better"}
    for metric in end_to_end + per_layer:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("higher", "lower")
    setup = next(m for m in end_to_end if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in end_to_end)


def test_names_are_well_formed_and_used_once():
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in SPEC[key]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))


def test_whole_file_is_small():
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_workload_is_defined(workload):
    import workloads

    assert workloads.make(workload).name == workload


def test_no_file_is_collected_as_a_paper_bench():
    # the tier-1 pytest config collects bench_*.py files
    assert not list(BENCH.rglob("bench_*.py"))
