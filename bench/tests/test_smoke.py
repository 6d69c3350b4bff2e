"""End to end through ``run.py`` on about 1/20 of the inputs."""

import json
import shutil
import subprocess
import sys

from measure import BENCH, ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
#: per-layer metrics that read no clock, so they repeat exactly; fsyncs
#: are left out: phase-2 jobs are queued in the order phase-1 results
#: land, so which shards a batch touches depends on the pool's timing
DETERMINISTIC = {m["name"] for m in SPEC["per_layer"] if m["unit"] == "count/site"} - {
    "campaign.fsyncs"
} | {
    "core.cohort_compression",
    "triage.probe_rate",
    "triage.probe_yield",
    "campaign.resume_hit_rate",
}


def smoke(tmp_path, trace: int, tag: str):
    out = tmp_path / f"{tag}.jsonl"
    subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--trace", str(trace), "--json", str(out)],
        cwd=ROOT,
        check=True,
        capture_output=True,
        timeout=900,
    )
    return {r["workload"]: r for r in map(json.loads, out.read_text().splitlines())}


def test_traced_smoke_repeats_exactly(tmp_path):
    first, second = smoke(tmp_path, 1, "a"), smoke(tmp_path, 1, "b")
    assert set(first) == {w["name"] for w in SPEC["workloads"]}
    for workload, record in first.items():
        again = second[workload]
        assert record["correct"] and again["correct"]
        assert record["round_digests"] == again["round_digests"]
        assert set(record["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        for name in DETERMINISTIC:
            assert record["metrics"][name] == again["metrics"][name], (workload, name)
        assert record["metrics"]["campaign.resume_hit_rate"]["value"] in (0.0, 1.0)


def test_untraced_smoke_reports_every_end_to_end_metric(tmp_path):
    for workload, record in smoke(tmp_path, 0, "e2e").items():
        assert record["correct"] and record["failed"] == 0
        assert set(record["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert all(m["value"] > 0 for m in record["metrics"].values()), workload


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "site-exact"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
