"""Command-line interface: run MFC experiments from a shell.

    python -m repro list
    python -m repro list --json
    python -m repro stages
    python -m repro run qtnp --threshold-ms 100 --max-crowd 55 --seed 1
    python -m repro run univ3 --mr 2 --threshold-ms 250 --background 20.3
    python -m repro run univ2 --mr 2 --threshold-ms 250 --stage Base
    python -m repro run qtnp --stage Upload --stage CacheBust
    python -m repro run qtnp --planner bisect --max-crowd 150
    python -m repro run qtnp --jobs 3 --cache /tmp/qtnp.d
    python -m repro run qtnp --faults stall --faults report-loss
    python -m repro spec dump qtnp --max-crowd 55 --seed 1 > world.json
    python -m repro run --spec world.json
    python -m repro campaign quantcast --scale 0.1 --jobs 8 --cache /tmp/qc.d
    python -m repro campaign quantcast --jobs 8 --job-timeout 300 --retries 1
    python -m repro campaign --fsck /tmp/qc.d
    python -m repro chaos --quick
    python -m repro perf --quick --check --max-regression 0.25

``run`` prints the experiment summary and the inferred constraint
report, and exits non-zero if the experiment aborted (e.g. too few
live clients).  ``stages`` lists every registered probe stage and
epoch-planner strategy; ``run --stage``/``--planner`` select them by
name.  ``spec dump`` exports a preset as a declarative
:class:`~repro.worlds.spec.WorldSpec` JSON document, which ``run
--spec`` — after any hand edits — turns back into a runnable world.
``campaign`` measures a whole generated population (the paper's §5
study) through the parallel campaign engine.  ``run --faults`` injects
a named fault plan into the world; ``chaos`` runs the fault grid and
fails when any faulted verdict is silently wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from typing import List, Optional

from repro.campaign.executor import run_campaign
from repro.campaign.spec import CampaignSpec, JobSpec
from repro.campaign.store import ResultStore
from repro.core.config import MFCConfig
from repro.core.epochs import PLANNERS, PlannerSpec
from repro.core.inference import infer_constraints
from repro.core.stages import DEFAULT_STAGE_NAMES, STAGES, StageKind
from repro.core.variants import mfc_mr_config, staggered_config
from repro.faults.spec import FAULT_PRESETS, fault_spec_from_names
from repro.workload.fleet import FleetSpec
from repro.worlds import FLEET_PRESETS, SCENARIO_PRESETS, SYNTHETIC_MODELS, WorldSpec
from repro.worlds import codec as world_codec

#: historical alias — the preset registry lives in the world layer now
SCENARIOS = SCENARIO_PRESETS

POPULATIONS = ("quantcast", "startups", "phishing")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Mini-Flash Crowd profiling experiments (USENIX ATC 2008 repro)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_p = sub.add_parser("list", help="list available target scenarios")
    list_p.add_argument("--json", action="store_true",
                        help="machine-readable inventory: scenarios, fleet "
                             "presets, probe stages, planners, synthetic "
                             "models")

    sub.add_parser(
        "stages",
        help="list registered probe stages and epoch-planner strategies",
    )

    run = sub.add_parser("run", help="run an MFC experiment against a scenario")
    run.add_argument("scenario", nargs="?", choices=sorted(SCENARIOS),
                     help="preset scenario (omit when using --spec)")
    run.add_argument("--spec", default=None, metavar="PATH",
                     help="run a declarative WorldSpec JSON document "
                          "(see `repro spec dump`) instead of a preset")
    _add_world_arguments(run)
    run.add_argument("--jobs", type=int, default=None, metavar="N",
                     help="run each stage as its own world, N in parallel "
                          "(any value, even 1, switches to per-stage "
                          "worlds; default: all stages share one world)")
    run.add_argument("--cache", default=None, metavar="DIR",
                     help="result store directory for --jobs runs "
                          "(requires --jobs): finished stages are never "
                          "recomputed")
    run.add_argument("--quiet", action="store_true",
                     help="print only the one-line stage outcomes")

    spec = sub.add_parser(
        "spec",
        help="inspect/export declarative world specifications",
    )
    spec_sub = spec.add_subparsers(dest="spec_command", required=True)
    dump = spec_sub.add_parser(
        "dump",
        help="export a preset scenario as a WorldSpec JSON document",
    )
    dump.add_argument("scenario", choices=sorted(SCENARIOS))
    _add_world_arguments(dump)
    dump.add_argument("--out", default=None, metavar="PATH",
                      help="write the document here (default: stdout)")

    campaign = sub.add_parser(
        "campaign",
        help="measure a generated §5 population through the campaign engine",
    )
    campaign.add_argument("population", nargs="?", choices=POPULATIONS,
                          help="population to measure (optional with "
                               "--compact)")
    campaign.add_argument("--stage", action="append", default=None,
                          choices=sorted(DEFAULT_STAGE_NAMES), metavar="NAME",
                          help="paper stage to measure: Base, SmallQuery "
                               "or LargeObject (repeatable; default: Base)")
    campaign.add_argument("--scale", type=float, default=0.1,
                          help="population scale (default 0.1): <= 1 shrinks "
                               "the paper's site counts, > 1 switches "
                               "quantcast to survey mode (10000 x scale "
                               "rank-proportional sites)")
    campaign.add_argument("--threshold-ms", type=float, default=100.0,
                          help="θ degradation threshold (default 100)")
    campaign.add_argument("--max-crowd", type=int, default=50,
                          help="crowd-size cap in requests (default 50)")
    campaign.add_argument("--clients", type=int, default=60,
                          help="fleet size per site world (default 60)")
    campaign.add_argument("--seed", type=int, default=0)
    campaign.add_argument("--jobs", type=int, default=None, metavar="N",
                          help="worker processes (default: sequential)")
    campaign.add_argument("--batch", type=int, default=None, metavar="B",
                          help="worlds per worker task (default: auto-sized "
                               "by estimated world cost)")
    campaign.add_argument("--cache", default=None, metavar="DIR",
                          help="result store directory of shard-NN.jsonl "
                               "files; an interrupted campaign resumes "
                               "from it without recomputation")
    campaign.add_argument("--compact", default=None, metavar="CACHE",
                          help="compact a result store in place (drop "
                               "superseded and corrupt lines, report bytes "
                               "reclaimed) and exit")
    campaign.add_argument("--fsck", default=None, metavar="CACHE",
                          help="integrity-check a result store without "
                               "rewriting it (per-shard line/record/"
                               "corruption counts) and exit; nonzero when "
                               "any shard has mid-file damage")
    campaign.add_argument("--job-timeout", type=float, default=None,
                          metavar="SEC",
                          help="dead-letter mode: wall-clock budget per "
                               "job; a job that exceeds it commits a "
                               "dead-letter record instead of hanging the "
                               "campaign (default: no limit)")
    campaign.add_argument("--retries", type=int, default=0, metavar="N",
                          help="dead-letter mode: extra attempts for a "
                               "job that raises (timeouts are never "
                               "retried; default 0)")
    campaign.add_argument("--quiet", action="store_true",
                          help="suppress progress reporting")
    campaign.add_argument("--dry-run", action="store_true",
                          help="expand the campaign and print per-stratum "
                               "site counts, job counts and the key digest "
                               "without running anything")
    campaign.add_argument("--triage", action="store_true",
                          help="two-phase triage instead of full probing: "
                               "a near-free indicator sweep over every "
                               "site, then targeted active probes only "
                               "where the classifier flags a constraint "
                               "(--stage is ignored: phase 2 picks the "
                               "stages per site)")
    campaign.add_argument("--triage-threshold", type=float, default=2.0,
                          metavar="MARGIN",
                          help="ambiguity margin for --triage: stages "
                               "predicted to stop below MARGIN x max-crowd "
                               "stay on the classifier's watch list "
                               "(default 2.0)")

    triage = sub.add_parser(
        "triage",
        help="triage one scenario: indicator sweep + classifier verdict",
    )
    triage.add_argument("scenario", choices=sorted(SCENARIOS))
    triage.add_argument("--threshold-ms", type=float, default=100.0,
                        help="θ degradation threshold (default 100)")
    triage.add_argument("--max-crowd", type=int, default=55,
                        help="crowd-size cap in requests (default 55)")
    triage.add_argument("--clients", type=int, default=65,
                        help="fleet size (default 65)")
    triage.add_argument("--seed", type=int, default=0)
    triage.add_argument("--margin", type=float, default=2.0,
                        help="ambiguity margin: stages predicted to stop "
                             "below margin x max-crowd stay on the watch "
                             "list (default 2.0)")
    triage.add_argument("--active", action="store_true",
                        help="also run the targeted phase-2 probes the "
                             "verdict asks for and print the joined record")
    triage.add_argument("--crowd-mode", default=None,
                        choices=("exact", "cohort"),
                        help="epoch fan-out for the --active phase-2 "
                             "probes (default: exact; 'cohort' "
                             "aggregates homogeneous crowd members)")
    triage.add_argument("--json", action="store_true",
                        help="machine-readable verdict (and record with "
                             "--active)")

    chaos = sub.add_parser(
        "chaos",
        help="run the fault grid: faulted verdicts must match the "
             "baseline or be explicitly inconclusive, never silently "
             "wrong",
    )
    chaos.add_argument("--quick", action="store_true",
                       help="CI-smoke slice: 2 scenarios x 3 fault "
                            "families instead of the full registry grid")
    chaos.add_argument("--scenario", action="append", default=None,
                       choices=sorted(SCENARIOS),
                       help="restrict to a scenario (repeatable; "
                            "default: --quick slice or every preset)")
    chaos.add_argument("--fault", action="append", default=None,
                       choices=sorted(FAULT_PRESETS),
                       help="restrict to a fault preset (repeatable; "
                            "default: --quick slice or every preset)")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="worker processes (default: sequential)")
    chaos.add_argument("--cache", default=None, metavar="PATH",
                       help="result store: an interrupted grid resumes "
                            "from it without recomputation")
    chaos.add_argument("--crowd-mode", default=None,
                       choices=("exact", "cohort"),
                       help="run every grid world in this crowd mode "
                            "(default: exact per-client simulation); "
                            "'cohort' asserts the hardening contract "
                            "under cohort aggregation")
    chaos.add_argument("--json", action="store_true",
                       help="machine-readable report (rows, counts, "
                            "silently-wrong cells)")
    chaos.add_argument("--quiet", action="store_true",
                       help="suppress progress reporting")

    equiv = sub.add_parser(
        "equiv",
        help="run the cohort-vs-exact equivalence grid: aggregated "
             "crowd epochs must reach the same provisioning verdicts "
             "as exact per-client simulation",
    )
    equiv.add_argument("--quick", action="store_true",
                       help="CI-smoke slice: 3 structurally different "
                            "scenarios instead of the full registry")
    equiv.add_argument("--scenario", action="append", default=None,
                       choices=sorted(SCENARIOS),
                       help="restrict to a scenario (repeatable; "
                            "default: --quick slice or every preset)")
    equiv.add_argument("--seed", type=int, default=0)
    equiv.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="worker processes (default: sequential)")
    equiv.add_argument("--cache", default=None, metavar="PATH",
                       help="result store: an interrupted grid resumes "
                            "from it without recomputation")
    equiv.add_argument("--json", action="store_true",
                       help="machine-readable report (rows, counts, "
                            "mismatches)")
    equiv.add_argument("--quiet", action="store_true",
                       help="suppress progress reporting")

    perf = sub.add_parser(
        "perf",
        help="benchmark the simulation substrate and compare to baseline",
    )
    perf.add_argument("--quick", action="store_true",
                      help="small CI-smoke sizes (minutes -> seconds)")
    perf.add_argument("--out", default="benchmarks/results", metavar="DIR",
                      help="directory for BENCH_kernel.json / BENCH_world.json "
                           "(default benchmarks/results)")
    perf.add_argument("--baseline", default=None, metavar="PATH",
                      help="baseline file to compare against "
                           "(default <out>/BENCH_baseline.json)")
    perf.add_argument("--update-baseline", action="store_true",
                      help="record this run as the new baseline")
    perf.add_argument("--check", action="store_true",
                      help="perf gate: exit nonzero when any bench "
                           "regresses more than --max-regression vs "
                           "the baseline (or the baseline is missing)")
    perf.add_argument("--max-regression", type=float, default=0.25,
                      metavar="FRAC",
                      help="allowed fractional slowdown per bench for "
                           "--check (default 0.25 = 25%%)")
    perf.add_argument("--check-keys", action="append", default=None,
                      metavar="PREFIX",
                      help="restrict the --check timing gate to benches "
                           "whose key starts with PREFIX (repeatable; "
                           "default: every comparable bench). "
                           "Determinism fingerprints are always checked.")
    perf.add_argument("--no-root-mirror", action="store_true",
                      help="skip mirroring BENCH_kernel.json / "
                           "BENCH_world.json to the repository root "
                           "(the cross-PR perf trajectory record)")
    perf.add_argument("--profile", default=None, metavar="KEY",
                      help="cProfile one bench key (e.g. world.crowd_2000; "
                           "respects --quick key names) instead of running "
                           "the suites; writes the profile digest to "
                           "<out>/PROFILE_<key>.txt")
    perf.add_argument("--profile-lines", type=int, default=25, metavar="N",
                      help="rows per profile table (default 25)")
    return parser


#: arg-dest → default for every world-shaping flag; ``run --spec``
#: rejects non-default values (the document, not the flags, is the world)
_WORLD_FLAG_DEFAULTS = {
    "threshold_ms": 100.0,
    "max_crowd": 55,
    "step": 5,
    "clients": 65,
    "min_clients": None,
    "mr": 1,
    "stagger_ms": None,
    "stage": None,
    "planner": None,
    "background": None,
    "seed": 0,
    "faults": None,
}


def _add_world_arguments(parser) -> None:
    """Flags shared by ``run`` and ``spec dump`` — everything that
    shapes the world they describe."""
    d = _WORLD_FLAG_DEFAULTS
    parser.add_argument("--threshold-ms", type=float, default=d["threshold_ms"],
                        help="θ degradation threshold (default 100)")
    parser.add_argument("--max-crowd", type=int, default=d["max_crowd"],
                        help="crowd-size cap in requests (default 55)")
    parser.add_argument("--step", type=int, default=d["step"],
                        help="crowd increment per epoch (default 5)")
    parser.add_argument("--clients", type=int, default=d["clients"],
                        help="fleet size (default 65)")
    parser.add_argument("--min-clients", type=int, default=d["min_clients"],
                        help="abort below this many live clients "
                             "(default: the paper's 50, clamped to the fleet)")
    parser.add_argument("--mr", type=int, default=d["mr"], metavar="M",
                        help="MFC-mr: parallel requests per client (default 1)")
    parser.add_argument("--stagger-ms", type=float, default=d["stagger_ms"],
                        help="staggered MFC: one arrival per this many ms")
    parser.add_argument("--stage", action="append", default=d["stage"],
                        choices=sorted(STAGES), metavar="NAME",
                        help="probe stage to run, in order (repeatable; "
                             "see `repro stages`; default: Base, "
                             "SmallQuery, LargeObject)")
    parser.add_argument("--planner", default=d["planner"],
                        choices=sorted(PLANNERS),
                        help="epoch-progression strategy (default: the "
                             "paper's linear ramp; see `repro stages`)")
    parser.add_argument("--background", type=float, default=d["background"],
                        help="override background traffic (requests/second)")
    parser.add_argument("--seed", type=int, default=d["seed"])
    parser.add_argument("--faults", action="append", default=d["faults"],
                        choices=sorted(FAULT_PRESETS), metavar="NAME",
                        help="inject a named fault plan (repeatable: "
                             "plans merge); runs the hardened "
                             "coordinator and may downgrade verdicts "
                             "to inconclusive rather than answer "
                             "wrongly")


def _default_min_clients(clients: int) -> int:
    """The paper's 50-client floor, clamped so small fleets (with
    their PlanetLab-like flaky fraction) still run."""
    return min(50, max(1, int(clients * 0.75)))


def _build_config(args) -> MFCConfig:
    config = MFCConfig(
        threshold_s=args.threshold_ms / 1000.0,
        max_crowd=args.max_crowd,
        crowd_step=args.step,
        initial_crowd=args.step,
        min_clients=(
            args.min_clients
            if args.min_clients is not None
            else _default_min_clients(args.clients)
        ),
    )
    if args.mr > 1:
        config = mfc_mr_config(
            config,
            requests_per_client=args.mr,
            threshold_s=args.threshold_ms / 1000.0,
            max_crowd=args.max_crowd,
        )
    if args.stagger_ms is not None:
        config = staggered_config(config, interval_s=args.stagger_ms / 1000.0)
    return config


def _describe_scenario(scenario) -> str:
    """One-line server model: boxes × spec @ access bandwidth."""
    spec = scenario.server_spec
    model = (
        f"{scenario.n_servers}x {spec.name} "
        f"({spec.cpu_cores} core, {scenario.server_access_bps * 8 / 1e6:.0f} Mbps)"
    )
    return f"{model:<38} {scenario.notes or scenario.name}"


def cmd_list(args) -> int:
    if getattr(args, "json", False):
        print(json.dumps(_inventory(), indent=2, sort_keys=True))
        return 0
    for name in sorted(SCENARIOS):
        scenario = SCENARIOS[name]()
        print(f"{name:<12} {_describe_scenario(scenario)}")
    return 0


def cmd_stages(args) -> int:
    """List registered probe stages and epoch-planner strategies."""
    print("Probe stages (run with `repro run <scenario> --stage NAME`):")
    for name, stage in STAGES.items():
        recipe = stage.method.value
        if stage.body_bytes:
            recipe += f"+{stage.body_bytes / 1024:.0f}KB body"
        if stage.connections > 1:
            recipe += f" x{stage.connections} conns"
        print(
            f"  {name:<12} {recipe:<18} q={stage.degradation_quantile:<4} "
            f"-> {stage.resource}"
        )
        print(f"  {'':<12} {stage.description}")
    print()
    print("Epoch planners (run with `repro run <scenario> --planner NAME`):")
    for name in sorted(PLANNERS):
        cls = PLANNERS[name]
        doc = (cls.__doc__ or "").strip()
        summary = doc.splitlines()[0] if doc else ""
        print(f"  {name:<12} {summary}")
    return 0


def _inventory() -> dict:
    """The machine-readable preset inventory behind ``list --json``."""
    from repro.core.profiler import profile_site
    from repro.core.stages import standard_stages

    scenarios = {}
    for name in sorted(SCENARIOS):
        scenario = SCENARIOS[name]()
        spec = scenario.server_spec
        scenarios[name] = {
            "server": spec.name,
            "cpu_cores": spec.cpu_cores,
            "n_servers": scenario.n_servers,
            "access_mbps": scenario.server_access_bps * 8 / 1e6,
            "background_rps": scenario.background_rps,
            "stages": [
                s.name for s in standard_stages(profile_site(scenario.site))
            ],
            "notes": scenario.notes,
        }
    return {
        "scenarios": scenarios,
        "probe_stages": {
            name: {
                "method": stage.method.value,
                "degradation_quantile": stage.degradation_quantile,
                "resource": stage.resource,
                "assignment": stage.assignment,
                "body_bytes": stage.body_bytes,
                "connections": stage.connections,
                "description": stage.description,
            }
            for name, stage in STAGES.items()
        },
        "planners": sorted(PLANNERS),
        "fleet_presets": {
            name: world_codec.encode(factory())
            for name, factory in sorted(FLEET_PRESETS.items())
        },
        "fault_presets": {
            name: world_codec.encode(factory())
            for name, factory in sorted(FAULT_PRESETS.items())
        },
        "synthetic_models": sorted(SYNTHETIC_MODELS),
    }


def _world_from_args(args, scenario) -> WorldSpec:
    """The declarative world the shared run/dump flags describe."""
    return WorldSpec(
        scenario=scenario,
        fleet=FleetSpec(n_clients=args.clients),
        config=_build_config(args),
        seed=args.seed,
        stages=tuple(args.stage) if args.stage else None,
        planner=PlannerSpec(name=args.planner) if args.planner else None,
        background_rps=args.background,
        faults=fault_spec_from_names(args.faults) if args.faults else None,
    )


def _report_result(result, quiet: bool) -> int:
    if quiet:
        for name, stage in result.stages.items():
            print(f"{name}\t{stage.describe()}")
    else:
        print(result.summary())
        print()
        print(infer_constraints(result).summary())
    return 1 if result.aborted else 0


def cmd_run(args) -> int:
    if (args.scenario is None) == (args.spec is None):
        print("repro run: give exactly one of a scenario or --spec",
              file=sys.stderr)
        return 2
    # --jobs (any value, even 1) selects the per-stage campaign path,
    # so sweeping N never changes experiment semantics; the shared
    # single-world path has no job grid, so --cache alone is an error
    # rather than a silent switch to per-stage worlds
    if args.cache is not None and args.jobs is None:
        print("repro run: --cache requires --jobs", file=sys.stderr)
        return 2
    if args.spec is not None:
        if args.jobs is not None:
            print("repro run: --spec runs a single world (no --jobs)",
                  file=sys.stderr)
            return 2
        overridden = sorted(
            "--" + dest.replace("_", "-")
            for dest, default in _WORLD_FLAG_DEFAULTS.items()
            if getattr(args, dest) != default
        )
        if overridden:
            print(
                "repro run: world flags have no effect with --spec "
                f"({', '.join(overridden)}); edit the document instead",
                file=sys.stderr,
            )
            return 2
        try:
            with open(args.spec, "r", encoding="utf-8") as fh:
                world = WorldSpec.from_json(fh.read())
        except (OSError, ValueError) as exc:
            print(f"repro run: cannot load spec {args.spec}: {exc}",
                  file=sys.stderr)
            return 2
        try:
            runner = world.build()
        except ValueError as exc:
            print(f"repro run: invalid world spec {args.spec}: {exc}",
                  file=sys.stderr)
            return 2
        return _report_result(runner.run(), args.quiet)
    world = _world_from_args(args, SCENARIOS[args.scenario]())
    if args.jobs is not None:
        return _run_stages_campaign(args, world)
    return _report_result(world.build().run(), args.quiet)


def cmd_spec(args) -> int:
    if args.spec_command == "dump":
        world = _world_from_args(args, SCENARIOS[args.scenario]())
        text = world.to_json()
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            print(f"wrote {args.out} (spec hash {world.spec_hash[:12]})",
                  file=sys.stderr)
        else:
            print(text)
        return 0
    raise AssertionError(f"unknown spec subcommand {args.spec_command!r}")


def _run_stages_campaign(args, world: WorldSpec) -> int:
    """``run --jobs N``: each stage in its own world, N in parallel.

    Unlike the default single-world run, the stages do not share
    server state (warm caches etc.) — each result matches a
    single-``--stage`` invocation with the same seed.
    """
    import dataclasses

    names = list(world.stages or DEFAULT_STAGE_NAMES)
    job_specs = [
        JobSpec.from_world(
            f"{args.scenario}|{name}|seed{world.seed}",
            dataclasses.replace(world, stages=(name,)),
        )
        for name in names
    ]
    spec = CampaignSpec(name=f"run-{args.scenario}", jobs=job_specs)
    outcomes = run_campaign(
        spec, jobs=args.jobs, store=args.cache, progress=not args.quiet
    )
    # merge the per-stage worlds into one result so the default output
    # (summary + constraint report) matches the sequential path's shape
    from repro.core.records import MFCResult

    merged = MFCResult(target_name=world.scenario.name)
    for name, outcome in zip(names, outcomes):
        result = outcome.result
        if result.aborted:
            merged.aborted = True
            merged.abort_reason = result.abort_reason
        elif name in result.stages:
            merged.stages[name] = result.stage(name)
            merged.live_clients = max(merged.live_clients, result.live_clients)
            merged.total_requests += result.total_requests
    if args.quiet:
        for name, outcome in zip(names, outcomes):
            if outcome.result.aborted:
                print(f"{name}\tABORTED: {outcome.result.abort_reason}")
            elif name in outcome.result.stages:
                print(f"{name}\t{merged.stage(name).describe()}")
            else:
                print(f"{name}\tskipped (no qualifying object)")
    else:
        print(merged.summary())
        print()
        print(infer_constraints(merged).summary())
    return 1 if merged.aborted else 0


def cmd_campaign(args) -> int:
    # imported here so `repro list`/`run` stay import-light
    from repro.analysis import run_stage_study
    from repro.analysis.tables import TextTable
    from repro.workload.populations import (
        generate_population,
        phishing_population,
        quantcast_strata,
        startup_population,
    )

    if args.fsck is not None:
        store = args.fsck
        if not store.shard_paths():
            print(f"repro campaign --fsck: no store at {store.path}",
                  file=sys.stderr)
            return 1
        report = store.fsck()
        for shard in report["shards"]:
            flags = []
            if shard["corrupt"]:
                flags.append(f"CORRUPT x{shard['corrupt']}")
            if shard["torn_tail"]:
                flags.append("torn tail")
            if shard["dead_letters"]:
                flags.append(f"dead-letters {shard['dead_letters']}")
            print(
                f"{shard['path']}: {shard['lines']} lines, "
                f"{shard['live']} live record(s), "
                f"{shard['superseded']} superseded"
                + (f" [{', '.join(flags)}]" if flags else "")
            )
        totals = report["totals"]
        print(
            f"total: {totals['files']} shard(s), {totals['live']} live, "
            f"{totals['superseded']} superseded, "
            f"{totals['corrupt']} corrupt, "
            f"{totals['torn_tails']} torn tail(s), "
            f"{totals['dead_letters']} dead letter(s)"
        )
        if report["damaged"]:
            print(
                "repro campaign --fsck: mid-file corruption detected; "
                "run --compact to drop the damaged lines",
                file=sys.stderr,
            )
            return 1
        return 0
    if args.compact is not None:
        store = args.compact
        if not store.shard_paths():
            print(f"repro campaign --compact: no store at {store.path}",
                  file=sys.stderr)
            return 1
        stats = store.compact()
        print(
            f"compacted {stats['files']} file(s): "
            f"{stats['lines_before']} lines -> "
            f"{stats['records_after']} records, "
            f"{stats['bytes_before']} -> {stats['bytes_after']} bytes "
            f"({stats['bytes_reclaimed']} reclaimed)"
        )
        return 0
    if args.population is None:
        print("repro campaign: a population is required unless --compact "
              "or --fsck is given", file=sys.stderr)
        return 2

    strata_by_name = {
        "quantcast": quantcast_strata,
        "startups": startup_population,
        "phishing": phishing_population,
    }
    strata = strata_by_name[args.population](scale=args.scale)
    sites = generate_population(strata, seed=args.seed)
    config = MFCConfig(
        threshold_s=args.threshold_ms / 1000.0,
        max_crowd=args.max_crowd,
        min_clients=_default_min_clients(args.clients),
    )
    fleet_spec = FleetSpec(n_clients=args.clients, unresponsive_fraction=0.05)
    if args.triage:
        return _campaign_triage(args, sites, config, fleet_spec)
    stages = [StageKind(name) for name in args.stage or ["Base"]]
    if args.dry_run:
        # expansion smoke: job counts and the key digest must be stable
        # run-to-run for a given population/scale/seed (CI asserts this)
        counts = ", ".join(
            f"{spec.name}={spec.n_sites}" for spec in strata
        )
        print(f"strata: {counts} ({len(sites)} sites)")
        for stage in stages:
            spec = CampaignSpec.for_study(
                sites, stage, config=config, fleet_spec=fleet_spec, seed=args.seed
            )
            jobs = spec.expand()
            keys = [job.key for job in jobs]
            digest = hashlib.sha256("".join(keys).encode("ascii")).hexdigest()
            print(
                f"campaign {spec.name}: {len(jobs)} jobs, "
                f"{len(set(keys))} distinct keys"
            )
            print(f"keys-digest: sha256:{digest}")
        return 0
    for stage in stages:
        result = run_stage_study(
            sites,
            stage,
            config=config,
            fleet_spec=fleet_spec,
            seed=args.seed,
            jobs=args.jobs,
            cache_path=args.cache,
            progress=not args.quiet,
            batch=args.batch,
            job_timeout_s=args.job_timeout,
            retries=args.retries,
        )
        table = TextTable(
            ["stratum", "measured", "degraded", "stop <=20", "stop <=50"],
            title=(
                f"{args.population} population, {stage.value} stage "
                f"({len(sites)} sites, seed {args.seed})"
            ),
        )
        for stratum in result.strata():
            table.add_row(
                stratum,
                result.measured_count(stratum),
                f"{result.degraded_fraction(stratum) * 100:.0f}%",
                f"{result.fraction_stopping_at_or_below(20, stratum) * 100:.0f}%",
                f"{result.fraction_stopping_at_or_below(50, stratum) * 100:.0f}%",
            )
        print(table.render())
        print()
    return 0


def _campaign_triage(args, sites, config, fleet_spec) -> int:
    """``repro campaign --triage``: the two-phase path over a population."""
    from repro.analysis.tables import TextTable
    from repro.campaign.triage import iter_triage

    per_stratum: dict = {}
    indicator_requests = active_requests = 0
    for record in iter_triage(
        sites,
        config=config,
        fleet_spec=fleet_spec,
        seed=args.seed,
        margin=args.triage_threshold,
        jobs=args.jobs,
        batch=args.batch,
        store=args.cache,
        progress=not args.quiet,
        job_timeout_s=args.job_timeout,
        retries=args.retries,
    ):
        row = per_stratum.setdefault(
            record.stratum or "-",
            {"sites": 0, "confident": 0, "ambiguous": 0, "clean": 0,
             "probed": 0, "stops": 0, "requests": 0},
        )
        row["sites"] += 1
        # labels beyond the classifier's three ("dead-letter" under a
        # timeout/retry policy, future additions) count without a
        # dedicated column rather than crashing the rollup
        row[record.label] = row.get(record.label, 0) + 1
        row["probed"] += 1 if record.probed else 0
        row["stops"] += sum(
            1 for stop in (record.active_stops or {}).values()
            if stop is not None
        )
        row["requests"] += record.total_requests
        indicator_requests += record.indicator_requests
        active_requests += record.active_requests

    table = TextTable(
        ["stratum", "sites", "confident", "ambiguous", "clean",
         "probed", "stops", "requests"],
        title=(
            f"{args.population} population triage "
            f"({sum(r['sites'] for r in per_stratum.values())} sites, "
            f"seed {args.seed}, margin {args.triage_threshold})"
        ),
    )
    # sorted: streaming arrival order varies with --jobs parallelism,
    # the rendered table must not (CI diffs two runs of this command)
    for stratum, row in sorted(per_stratum.items()):
        table.add_row(
            stratum, row["sites"], row["confident"], row["ambiguous"],
            row["clean"], row["probed"], row["stops"], row["requests"],
        )
    print(table.render())
    dead = sum(row.get("dead-letter", 0) for row in per_stratum.values())
    if dead:
        print(f"\ndead-lettered sites: {dead} (not triaged; see the cache)")
    total = indicator_requests + active_requests
    n_sites = sum(r["sites"] for r in per_stratum.values()) or 1
    print(
        f"\nrequests: {indicator_requests} indicator + {active_requests} "
        f"active = {total} ({total / n_sites:.0f}/site)"
    )
    return 0


def cmd_triage(args) -> int:
    # imported here so `repro list`/`run` stay import-light
    import dataclasses

    from repro.campaign import decode_result, execute_job
    from repro.campaign.spec import JobSpec
    from repro.core.inference import classify_indicator

    scenario = SCENARIOS[args.scenario]()
    config = MFCConfig(
        threshold_s=args.threshold_ms / 1000.0,
        max_crowd=args.max_crowd,
        min_clients=_default_min_clients(args.clients),
    )
    fleet_spec = FleetSpec(n_clients=args.clients)
    if args.active:
        from repro.campaign.triage import run_triage

        records = run_triage(
            [(args.scenario, scenario)],
            config=config,
            fleet_spec=fleet_spec,
            seed=args.seed,
            margin=args.margin,
            crowd_mode=args.crowd_mode,
        )
        record = records[0]
        if args.json:
            print(json.dumps(dataclasses.asdict(record), indent=2))
            return 0
        print(f"Triage record for {record.site_id}: {record.label}")
        for stage, flag in record.stage_flags.items():
            predicted = record.predicted_stops.get(stage)
            line = f"  {stage:<12} {flag:<10}"
            if predicted is not None:
                line += f" predicted ~{predicted}"
            if record.active_stops and stage in record.active_stops:
                stop = record.active_stops[stage]
                line += (
                    f" -> active: stop at {stop}"
                    if stop is not None
                    else " -> active: no stop"
                )
            print(line)
        print(
            f"requests: {record.indicator_requests} indicator "
            f"+ {record.active_requests} active"
        )
        return 0

    world = WorldSpec(
        scenario=scenario,
        fleet=fleet_spec,
        config=config,
        seed=args.seed,
        indicator=True,
    )
    job = JobSpec.from_world(f"{args.scenario}|indicator|seed{args.seed}", world)
    result = decode_result(execute_job(job))
    verdict = classify_indicator(result, config=config, margin=args.margin)
    if args.json:
        payload = dataclasses.asdict(verdict)
        payload["indicator_requests"] = result.total_requests
        print(json.dumps(payload, indent=2))
        return 0
    print(result.describe())
    print()
    print(verdict.summary())
    print(f"indicator requests: {result.total_requests}")
    return 0


def cmd_chaos(args) -> int:
    # imported here so `repro list`/`run` stay import-light
    from repro.faults.chaos import chaos_grid, format_report

    report = chaos_grid(
        scenarios=args.scenario,
        faults=args.fault,
        seed=args.seed,
        quick=args.quick,
        jobs=args.jobs,
        store=args.cache,
        progress=not args.quiet and not args.json,
        crowd_mode=args.crowd_mode,
    )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_report(report))
    wrong = report["counts"]["silently_wrong"]
    if wrong:
        print(
            f"repro chaos: {wrong} silently wrong verdict(s) — a fault "
            "changed an answer without downgrading it",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_equiv(args) -> int:
    # imported here so `repro list`/`run` stay import-light
    from repro.worlds.equivalence import equivalence_grid, format_report

    report = equivalence_grid(
        scenarios=args.scenario,
        seed=args.seed,
        quick=args.quick,
        jobs=args.jobs,
        store=args.cache,
        progress=not args.quiet and not args.json,
    )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_report(report))
    counts = report["counts"]
    broken = counts["verdict_mismatches"] + counts["knee_out_of_tolerance"]
    if broken:
        print(
            f"repro equiv: {broken} cohort/exact disagreement(s) — "
            "aggregation changed an experiment's answer",
            file=sys.stderr,
        )
        return 1
    return 0


def _project_root_for(path: str) -> Optional[str]:
    """Nearest ancestor of *path* (inclusive) that looks like a
    project root (has ``.git`` or ``pyproject.toml``); None if the
    walk reaches the filesystem root without finding one."""
    import os

    current = path
    while True:
        if os.path.exists(os.path.join(current, ".git")) or os.path.exists(
            os.path.join(current, "pyproject.toml")
        ):
            return current
        parent = os.path.dirname(current)
        if parent == current:
            return None
        current = parent


def _cmd_perf_profile(args) -> int:
    """``repro perf --profile KEY``: cProfile one registered bench.

    The bench runs once under the profiler (its record — timing and
    fingerprint — is reported but not written to the BENCH payloads:
    profiled wall times are not comparable to suite wall times).  The
    digest is the top-N functions by cumulative time plus their
    callers, which is the view that answers "where does an epoch's
    wall clock go" without a second tool.
    """
    import cProfile
    import io
    import os
    import pstats

    from repro.perf.benches import bench_factories

    factories = bench_factories(quick=args.quick)
    key = args.profile
    if key not in factories:
        print(
            f"perf --profile: unknown bench {key!r} (have: "
            + ", ".join(sorted(factories))
            + ")",
            file=sys.stderr,
        )
        return 2
    print(f"repro perf: profiling {key} ...", flush=True)
    profiler = cProfile.Profile()
    profiler.enable()
    record = factories[key]()
    profiler.disable()

    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.sort_stats("cumulative")
    buf.write(f"bench {key}: seconds={record.get('seconds'):.4f} "
              f"fingerprint={record.get('fingerprint')}\n\n")
    buf.write(f"top {args.profile_lines} by cumulative time\n")
    stats.print_stats(args.profile_lines)
    buf.write(f"\ncallers of the top {args.profile_lines}\n")
    stats.print_callers(args.profile_lines)
    digest = buf.getvalue()

    os.makedirs(args.out, exist_ok=True)
    artifact = os.path.join(
        args.out, f"PROFILE_{key.replace('/', '_')}.txt"
    )
    with open(artifact, "w") as fh:
        fh.write(digest)
    print(digest)
    print(f"profile written: {artifact}")
    return 0


def cmd_perf(args) -> int:
    # imported here so `repro list`/`run` stay import-light
    import os

    if args.profile:
        return _cmd_perf_profile(args)

    from repro.perf import (
        BASELINE_FILENAME,
        compare_to_baseline,
        find_regressions,
        load_bench_file,
        run_campaign_suite,
        run_kernel_suite,
        run_triage_suite,
        run_world_suite,
        write_bench_file,
    )
    from repro.perf.baseline import render_comparison

    print("repro perf: measuring kernel + allocator ...", flush=True)
    kernel = run_kernel_suite(quick=args.quick)
    print("repro perf: measuring end-to-end world ...", flush=True)
    world = run_world_suite(quick=args.quick)
    print("repro perf: measuring campaign dispatch ...", flush=True)
    world.update(run_campaign_suite(quick=args.quick))
    print("repro perf: measuring two-phase triage ...", flush=True)
    world.update(run_triage_suite(quick=args.quick))
    benches = {**kernel, **world}

    write_bench_file(os.path.join(args.out, "BENCH_kernel.json"), kernel)
    write_bench_file(os.path.join(args.out, "BENCH_world.json"), world)
    if not args.no_root_mirror and not args.quick:
        # root-level copies record the cross-PR perf trajectory next to
        # README/ROADMAP, where successive PRs are expected to commit
        # them; the root is resolved from the --out path (not the cwd).
        # Quick smoke runs never mirror — they must not replace the
        # committed full-suite trajectory with .quick payloads.
        root = _project_root_for(os.path.abspath(args.out))
        if root is not None and root != os.path.abspath(args.out):
            write_bench_file(os.path.join(root, "BENCH_kernel.json"), kernel)
            write_bench_file(os.path.join(root, "BENCH_world.json"), world)
    baseline_path = (
        args.baseline
        if args.baseline is not None
        else os.path.join(args.out, BASELINE_FILENAME)
    )
    if args.update_baseline:
        existing = load_bench_file(baseline_path) or {}
        existing.update(benches)
        write_bench_file(baseline_path, existing)
        print(f"baseline updated: {baseline_path}")
        return 0

    baseline = load_bench_file(baseline_path)
    rows = compare_to_baseline(benches, baseline)
    print(render_comparison(rows))
    drifted = [r["key"] for r in rows if r["fingerprint_match"] is False]
    if drifted:
        print(
            "determinism drift vs baseline in: " + ", ".join(drifted),
            file=sys.stderr,
        )
        return 1
    checked = [r["key"] for r in rows if r["fingerprint_match"] is True]
    if baseline is not None and not checked:
        # fail closed: a baseline exists but no fingerprinted bench was
        # comparable (params changed / bench renamed without
        # --update-baseline), i.e. the determinism guard checked nothing
        print(
            "no fingerprinted bench matched a baseline entry; "
            f"refresh {baseline_path} with --update-baseline",
            file=sys.stderr,
        )
        return 1
    if args.check:
        if baseline is None:
            # a gate with nothing to gate against must fail loudly
            print(
                f"perf --check: no baseline at {baseline_path}; "
                "record one with --update-baseline",
                file=sys.stderr,
            )
            return 1
        gated_rows = rows
        if args.check_keys:
            prefixes = tuple(args.check_keys)
            gated_rows = [r for r in rows if r["key"].startswith(prefixes)]
        regressions = find_regressions(gated_rows, args.max_regression)
        if regressions:
            for reg in regressions:
                print(
                    f"perf regression: {reg['key']} {reg['slowdown']:.2f}x "
                    f"baseline ({reg['seconds']:.4f}s vs "
                    f"{reg['baseline_seconds']:.4f}s, allowed "
                    f"{1.0 + args.max_regression:.2f}x)",
                    file=sys.stderr,
                )
            return 1
        compared = sum(1 for r in gated_rows if r["baseline_seconds"] is not None)
        if compared == 0:
            # fail closed: a gate that compared nothing gates nothing
            # (typo'd --check-keys prefix, renamed benches, params drift)
            print(
                "perf --check: no bench was comparable to a baseline "
                "entry (check --check-keys prefixes and baseline params)",
                file=sys.stderr,
            )
            return 1
        print(
            f"perf check ok: {compared} bench(es) within "
            f"{args.max_regression * 100:.0f}% of baseline"
        )
        return 0
    if baseline is None:
        print(f"no baseline at {baseline_path}; record one with --update-baseline")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    # open every result-store flag up front, so a bad path fails before
    # any world runs rather than at the first commit
    for flag in ("cache", "fsck", "compact"):
        path = getattr(args, flag, None)
        if path is not None:
            try:
                setattr(args, flag, ResultStore(path))
            except ValueError as exc:
                print(f"repro {args.command}: {exc}", file=sys.stderr)
                return 2
    if args.command == "list":
        return cmd_list(args)
    if args.command == "stages":
        return cmd_stages(args)
    if args.command == "spec":
        return cmd_spec(args)
    if args.command == "campaign":
        return cmd_campaign(args)
    if args.command == "triage":
        return cmd_triage(args)
    if args.command == "chaos":
        return cmd_chaos(args)
    if args.command == "equiv":
        return cmd_equiv(args)
    if args.command == "perf":
        return cmd_perf(args)
    return cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
