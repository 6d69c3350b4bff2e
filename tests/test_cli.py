"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.worlds import SCENARIO_PRESETS


def test_list_prints_all_scenarios(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in SCENARIO_PRESETS:
        assert name in out


def test_list_describes_server_model_and_notes(capsys):
    main(["list"])
    out = capsys.readouterr().out
    # one-line description: server model (boxes, cores, access link)
    # plus the scenario notes
    assert "16x qtp (8 core, 10000 Mbps)" in out
    assert "Table 1 target." in out
    assert "Figure 5/6 validation target" in out


def test_run_quiet_prints_stage_lines(capsys):
    code = main([
        "run", "qtnp", "--max-crowd", "15", "--clients", "55",
        "--stage", "Base", "--quiet", "--seed", "1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("Base\t")


def test_run_full_output_has_inference(capsys):
    code = main([
        "run", "univ1", "--max-crowd", "20", "--clients", "55",
        "--stage", "Base", "--seed", "2",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "MFC against univ1" in out
    assert "Constraint report" in out


def test_run_aborts_with_small_fleet(capsys):
    # the paper's behaviour: a fleet that cannot field the minimum
    # number of live clients aborts the experiment → non-zero exit
    code = main([
        "run", "qtnp", "--clients", "30", "--min-clients", "50",
        "--stage", "Base", "--seed", "3",
    ])
    assert code == 1
    assert "ABORTED" in capsys.readouterr().out


def test_run_mfc_mr_flag(capsys):
    code = main([
        "run", "qtnp", "--mr", "2", "--threshold-ms", "250",
        "--max-crowd", "30", "--step", "10", "--clients", "55",
        "--stage", "Base", "--quiet", "--seed", "4",
    ])
    assert code == 0


def test_run_stagger_flag(capsys):
    code = main([
        "run", "qtnp", "--stagger-ms", "100", "--max-crowd", "15",
        "--clients", "55", "--stage", "Base", "--quiet", "--seed", "5",
    ])
    assert code == 0


def test_run_background_override(capsys):
    code = main([
        "run", "univ3", "--background", "2.0", "--max-crowd", "15",
        "--clients", "55", "--stage", "Base", "--quiet", "--seed", "6",
    ])
    assert code == 0


def test_run_jobs_matches_sequential_single_stage(capsys, tmp_path):
    args = ["run", "qtnp", "--max-crowd", "15", "--clients", "55",
            "--stage", "Base", "--quiet", "--seed", "1"]
    assert main(args) == 0
    sequential = capsys.readouterr().out
    cache = str(tmp_path / "run.d")
    assert main(args + ["--jobs", "2", "--cache", cache]) == 0
    assert capsys.readouterr().out == sequential
    # cached re-run prints the same outcome without recomputing
    assert main(args + ["--jobs", "2", "--cache", cache]) == 0
    assert capsys.readouterr().out == sequential


def test_run_cache_without_jobs_is_rejected(capsys, tmp_path):
    # --cache has no meaning on the shared-single-world path; demanding
    # --jobs avoids silently switching to per-stage worlds
    code = main(["run", "qtnp", "--cache", str(tmp_path / "c.d")])
    assert code == 2
    assert "--cache requires --jobs" in capsys.readouterr().err


def test_campaign_runs_and_resumes(capsys, tmp_path):
    cache = str(tmp_path / "phishing.d")
    args = ["campaign", "phishing", "--scale", "0.02", "--max-crowd", "20",
            "--clients", "55", "--seed", "3", "--quiet", "--cache", cache]
    assert main(args + ["--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "phishing population, Base stage" in out
    assert "stratum" in out
    # every job is now cached: the repeat run reports identically
    assert main(args) == 0
    assert capsys.readouterr().out == out


def test_list_json_is_machine_readable(capsys):
    assert main(["list", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["scenarios"]) == set(SCENARIO_PRESETS)
    assert doc["scenarios"]["qtp"]["n_servers"] == 16
    # api-micro's biggest file is below the Large Object bound
    assert doc["scenarios"]["api-micro"]["stages"] == ["Base", "SmallQuery"]
    assert doc["fleet_presets"]["lan"]["unresponsive_fraction"] == 0.0
    assert "linear" in doc["synthetic_models"]


# -- repro spec dump / run --spec ----------------------------------------------


SPEC_FLAGS = ["--max-crowd", "15", "--clients", "55", "--stage", "Base",
              "--seed", "1"]


def test_spec_dump_roundtrips_through_run(capsys, tmp_path):
    """Acceptance: a preset exported via `spec dump` then run via
    `run --spec` reproduces the preset run exactly."""
    assert main(["run", "qtnp", "--quiet"] + SPEC_FLAGS) == 0
    direct = capsys.readouterr().out
    assert main(["spec", "dump", "qtnp"] + SPEC_FLAGS) == 0
    document = capsys.readouterr().out
    path = tmp_path / "world.json"
    path.write_text(document)
    assert main(["run", "--spec", str(path), "--quiet"]) == 0
    assert capsys.readouterr().out == direct


def test_spec_dump_to_file_and_hash_stability(capsys, tmp_path):
    out = tmp_path / "world.json"
    assert main(["spec", "dump", "univ1", "--out", str(out)] + SPEC_FLAGS) == 0
    first = out.read_text()
    assert main(["spec", "dump", "univ1", "--out", str(out)] + SPEC_FLAGS) == 0
    assert out.read_text() == first  # dump is deterministic
    assert "spec hash" in capsys.readouterr().err
    from repro.worlds import WorldSpec

    spec = WorldSpec.from_json(first)
    assert spec.scenario.name == "univ1"


def test_run_spec_rejects_bad_combinations(capsys, tmp_path):
    # neither scenario nor --spec
    assert main(["run"]) == 2
    assert "exactly one" in capsys.readouterr().err
    # both
    path = tmp_path / "w.json"
    path.write_text("{}")
    assert main(["run", "qtnp", "--spec", str(path)]) == 2
    capsys.readouterr()
    # --spec with --jobs
    assert main(["run", "--spec", str(path), "--jobs", "2"]) == 2
    assert "single world" in capsys.readouterr().err
    # world-shaping flags are rejected, not silently ignored: the
    # document is the world
    assert main(["run", "--spec", str(path), "--seed", "7",
                 "--max-crowd", "30"]) == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "--max-crowd" in err
    assert "edit the document" in err
    # unreadable / non-world documents
    assert main(["run", "--spec", str(tmp_path / "missing.json")]) == 2
    assert "cannot load spec" in capsys.readouterr().err
    assert main(["run", "--spec", str(path)]) == 2
    assert "cannot load spec" in capsys.readouterr().err
    # decodes fine but fails world validation at build time
    from repro.worlds import SyntheticSpec, WorldSpec

    bad_world = tmp_path / "bad_world.json"
    bad_world.write_text(
        WorldSpec(synthetic=SyntheticSpec(model="quadratic")).to_json()
    )
    assert main(["run", "--spec", str(bad_world)]) == 2
    assert "invalid world spec" in capsys.readouterr().err


def test_campaign_dry_run_reports_stable_expansion(capsys):
    args = ["campaign", "phishing", "--scale", "0.05", "--dry-run"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert "4 jobs, 4 distinct keys" in first
    assert "keys-digest: sha256:" in first
    # expansion and keys are deterministic run-to-run
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_campaign_batched_sharded_cache_and_compact(capsys, tmp_path):
    cache = str(tmp_path / "cache.d")
    args = ["campaign", "startups", "--scale", "0.03", "--max-crowd", "20",
            "--clients", "55", "--seed", "3", "--quiet", "--cache", cache,
            "--jobs", "2", "--batch", "2"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "startups population" in out
    assert list((tmp_path / "cache.d").glob("shard-*.jsonl"))
    # repeat run: fully cached, identical report
    assert main(args) == 0
    assert capsys.readouterr().out == out
    # compaction is a maintenance subcommand without a population
    assert main(["campaign", "--compact", cache]) == 0
    compact_out = capsys.readouterr().out
    assert "compacted" in compact_out and "reclaimed" in compact_out
    # and the cache still serves the campaign afterwards
    assert main(args) == 0
    assert capsys.readouterr().out == out


def test_campaign_compact_missing_store_fails(capsys, tmp_path):
    assert main(["campaign", "--compact", str(tmp_path / "nope.d")]) == 1
    assert "no store" in capsys.readouterr().err


def test_campaign_requires_population_without_compact(capsys):
    assert main(["campaign"]) == 2
    assert "population is required" in capsys.readouterr().err


def test_campaign_triage_dry_run_is_refused(capsys, tmp_path):
    """Phase 2 is planned from phase-1 results, so a triage campaign
    has no dry expansion: refuse it before anything runs."""
    cache = tmp_path / "c.d"
    code = main(["campaign", "startups", "--scale", "0.2", "--triage",
                 "--dry-run", "--cache", str(cache)])
    assert code == 2
    captured = capsys.readouterr()
    assert "--dry-run cannot expand a --triage campaign" in captured.err
    assert captured.out == ""
    assert not cache.exists()


def test_campaign_dry_run_prints_stratum_counts(capsys):
    assert main(["campaign", "quantcast", "--scale", "0.02", "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert "strata: 1-1K=2, 1K-10K=2, 10K-100K=2, 100K-1M=3 (9 sites)" in out


def test_parser_rejects_unknown_population():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["campaign", "nonexistent"])


def test_parser_rejects_unknown_scenario():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "nonexistent"])


def test_parser_rejects_unknown_stage():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "qtnp", "--stage", "upload"])


# -- repro stages / run --stage / --planner -------------------------------------


def test_stages_lists_registry_and_planners(capsys):
    assert main(["stages"]) == 0
    out = capsys.readouterr().out
    for name in ("Base", "SmallQuery", "LargeObject", "Upload", "ConnChurn",
                 "CacheBust"):
        assert name in out
    for planner in ("linear", "geometric", "bisect"):
        assert planner in out
    # recipes and targeted resources are shown
    assert "POST+64KB body" in out
    assert "back-end write path" in out


def test_stages_tolerates_docstring_less_planner(capsys, monkeypatch):
    from repro.core.epochs import PLANNERS, LinearRamp

    class Custom(LinearRamp):
        pass

    Custom.__doc__ = None
    monkeypatch.setitem(PLANNERS, "custom", Custom)
    assert main(["stages"]) == 0
    assert "custom" in capsys.readouterr().out


def test_run_with_named_stages(capsys):
    code = main([
        "run", "qtnp", "--stage", "ConnChurn", "--stage", "Upload",
        "--max-crowd", "15", "--clients", "55", "--quiet", "--seed", "1",
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("ConnChurn\t")
    assert lines[1].startswith("Upload\t")


def test_run_with_bisect_planner(capsys):
    code = main([
        "run", "qtnp", "--planner", "bisect", "--max-crowd", "20",
        "--clients", "55", "--stage", "Base", "--quiet", "--seed", "1",
    ])
    assert code == 0
    assert capsys.readouterr().out.startswith("Base\t")


def test_run_rejects_stage_and_stages_together():
    # one stage flag remains: the old --stages spelling is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["run", "qtnp", "--stage", "Base", "--stages", "Upload", "--quiet"])
    assert exc.value.code == 2


def test_cache_on_a_regular_file_exits_2(capsys, tmp_path):
    path = tmp_path / "old-cache.jsonl"
    path.write_text("")
    for args in (
        ["run", "qtnp", "--jobs", "1", "--cache", str(path)],
        ["campaign", "phishing", "--cache", str(path)],
        ["campaign", "--fsck", str(path)],
    ):
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{path} is a file" in err


def test_parser_rejects_unknown_registry_stage_and_planner():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "qtnp", "--stage", "Teleport"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "qtnp", "--planner", "oracle"])


def test_run_jobs_with_named_stages(capsys, tmp_path):
    args = ["run", "qtnp", "--stage", "CacheBust", "--max-crowd", "15",
            "--clients", "55", "--quiet", "--seed", "1"]
    assert main(args) == 0
    sequential = capsys.readouterr().out
    cache = str(tmp_path / "stages.d")
    assert main(args + ["--jobs", "2", "--cache", cache]) == 0
    assert capsys.readouterr().out == sequential


def test_spec_dump_with_stages_and_planner_roundtrips(capsys, tmp_path):
    flags = ["--stage", "Upload", "--planner", "geometric", "--max-crowd",
             "15", "--clients", "55", "--seed", "1"]
    assert main(["run", "qtnp", "--quiet"] + flags) == 0
    direct = capsys.readouterr().out
    assert main(["spec", "dump", "qtnp"] + flags) == 0
    document = capsys.readouterr().out
    assert '"Upload"' in document and '"geometric"' in document
    path = tmp_path / "world.json"
    path.write_text(document)
    assert main(["run", "--spec", str(path), "--quiet"]) == 0
    assert capsys.readouterr().out == direct


def test_list_json_includes_probe_stages_and_planners(capsys):
    assert main(["list", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["planners"] == ["bisect", "geometric", "linear"]
    stages = doc["probe_stages"]
    assert set(stages) >= {"Base", "SmallQuery", "LargeObject", "Upload",
                           "ConnChurn", "CacheBust"}
    assert stages["Upload"]["method"] == "POST"
    assert stages["Upload"]["body_bytes"] == 64 * 1024.0
    assert stages["ConnChurn"]["connections"] == 4
    assert stages["CacheBust"]["resource"] == "storage (disk) subsystem"


# -- repro perf ----------------------------------------------------------------


def _stub_perf_suite(monkeypatch):
    import repro.perf as perf

    monkeypatch.setattr(
        perf, "run_kernel_suite",
        lambda quick=False: {
            "kernel.stub": {
                "seconds": 0.5,
                "slowdown": 1.0,
                "normalised_seconds": 0.5,
                "params": {"n": 1},
            }
        },
    )


def test_perf_records_and_scores_against_baseline(tmp_path, monkeypatch, capsys):
    _stub_perf_suite(monkeypatch)
    out = str(tmp_path)
    assert main(["perf", "--out", out, "--update-baseline"]) == 0
    assert main(["perf", "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "1.00x" in stdout
    assert (tmp_path / "BENCH_kernel.json").exists()
    assert not (tmp_path / "BENCH_world.json").exists()


def test_perf_without_baseline_succeeds_with_hint(tmp_path, monkeypatch, capsys):
    _stub_perf_suite(monkeypatch)
    assert main(["perf", "--out", str(tmp_path)]) == 0
    assert "record one with --update-baseline" in capsys.readouterr().out


# -- faults: repro run --faults / repro chaos / campaign --fsck ----------------


def test_run_faults_flag_injects_and_stays_deterministic(capsys):
    args = ["run", "lab", "--max-crowd", "15", "--clients", "55",
            "--stage", "Base", "--quiet", "--seed", "4"]
    assert main(args) == 0
    clean = capsys.readouterr().out
    assert main(args + ["--faults", "dropout"]) == 0
    faulted = capsys.readouterr().out
    assert faulted.startswith("Base\t")
    # same seed, same plan: identical run; the plan itself perturbs it
    assert main(args + ["--faults", "dropout"]) == 0
    assert capsys.readouterr().out == faulted
    assert main(args + ["--faults", "report-loss"]) == 0
    assert capsys.readouterr().out != clean or faulted != clean


def test_spec_dump_carries_the_fault_plan(capsys, tmp_path):
    document = tmp_path / "faulted.json"
    assert main([
        "spec", "dump", "lab", "--faults", "stall", "--faults", "crash",
        "--out", str(document),
    ]) == 0
    capsys.readouterr()
    doc = json.loads(document.read_text())
    kinds = [e["kind"] for e in doc["faults"]["events"]]
    assert kinds == ["stall", "server-crash"]
    # the flag is a world flag: --spec refuses it like any other
    assert main(["run", "--spec", str(document), "--faults", "stall"]) == 2
    assert "--faults" in capsys.readouterr().err


def test_parser_rejects_unknown_fault_preset():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "lab", "--faults", "gremlins"])


def test_list_json_includes_fault_presets(capsys):
    assert main(["list", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    presets = doc["fault_presets"]
    assert "dropout" in presets and "crash" in presets
    assert presets["stall"]["events"][0]["kind"] == "stall"


def test_chaos_quick_passes_and_is_machine_readable(capsys, tmp_path):
    cache = str(tmp_path / "chaos.cache")
    assert main(["chaos", "--quick", "--json", "--cache", cache]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["counts"]["silently_wrong"] == 0
    assert report["counts"]["worlds"] == 8
    # the cached rerun renders the identical human report, exit 0
    assert main(["chaos", "--quick", "--cache", cache, "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "silently_wrong=0" in out
    assert "SILENTLY WRONG" not in out


def test_campaign_fsck_reports_and_gates(capsys, tmp_path):
    from repro.campaign.store import ResultStore

    cache = tmp_path / "study.cache"
    store = ResultStore(cache)
    store.append({
        "key": "aa01", "job_id": "aa01", "meta": {}, "detail": "summary",
        "elapsed_s": 0.1, "result": {"kind": "value", "value": 1},
    })
    assert main(["campaign", "--fsck", str(cache)]) == 0
    out = capsys.readouterr().out
    assert "1 live record(s)" in out
    assert "0 corrupt" in out
    # mid-file damage: nonzero exit and a pointer at --compact
    path = store.shard_paths()[0]
    path.write_text('{"broken\n' + path.read_text())
    assert main(["campaign", "--fsck", str(cache)]) == 1
    captured = capsys.readouterr()
    assert "CORRUPT" in captured.out
    assert "--compact" in captured.err


def test_campaign_fsck_missing_store_fails(capsys, tmp_path):
    assert main(["campaign", "--fsck", str(tmp_path / "absent")]) == 1
    assert "no store" in capsys.readouterr().err
