"""Cohort-vs-exact verdict equivalence: the aggregation soundness gate.

Cohort crowd mode (:mod:`repro.core.cohort`) replaces per-member
request simulation with one weighted macro-flow per homogeneous cohort
plus synthesized member reports.  The synthesis is *distribution*
equivalent, not byte-equivalent — so the contract it must keep is the
experiment-level one: **for every registry scenario, the cohort-mode
world must reach the same provisioning verdicts as the exact world,
with any stopping crowd (knee) within a small tolerance.**

:func:`equivalence_grid` runs that contract on the paired-grid runner
the chaos grid uses too (:class:`~repro.worlds.grid.PairedGrid`): for
each scenario one exact world and one cohort world — same scenario,
fleet, config and seed; ``crowd_mode`` is the only difference.  Both
are ordinary deterministic campaign jobs, so the grid parallelizes,
caches and resumes like any campaign.  Per stage the pair must
satisfy:

    ok  ⇔  cohort verdict == exact verdict
           or either verdict ∈ {inconclusive, unknown}
           or the pair disagrees only at the cap boundary (one run
           stopped within the knee tolerance of the largest crowd the
           other — clean — run ever fielded)

and, when both stopped,

    |knee_cohort − knee_exact| ≤ max(2 × crowd_step, 0.3 × max_crowd)

(the onset of degradation is a gradual ramp through θ; two crowd
steps is the resolution the linear ramp itself has, and deep-past-knee
positional synthesis is approximate by design — see the module
docstring of :mod:`repro.core.cohort`).  Anything else is a *verdict
mismatch* and fails the grid — the assertion CI's cohort-parity job
and ``repro equiv`` make.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Union

from repro.campaign.spec import JobSpec
from repro.campaign.store import ResultStore
from repro.core.config import MFCConfig
from repro.core.records import StageOutcome
from repro.workload.fleet import FleetSpec
from repro.worlds.grid import (
    SOFT_VERDICTS,
    Arm,
    PairedGrid,
    cap_boundary,
    grid_config,
    grid_fleet,
)
from repro.worlds.registry import SCENARIO_PRESETS

#: the --quick slice: one static single box, one query-heavy site and
#: one cluster — the three structurally different server shapes
QUICK_SCENARIOS = ("lab", "qtnp", "qtp")

#: exact world first (the base every cohort verdict is compared to)
_ARMS = (
    Arm("exact", "exact"),
    Arm("cohort", "cohort", lambda world: replace(world, crowd_mode="cohort")),
)


def _near_cap(stopped, clean, tolerance: int) -> bool:
    """One run stopped within *tolerance* of where the other ran out.

    ``knee = s`` and ``knee > L`` are overlapping claims at grid
    resolution when ``s ≥ L − tolerance``: the clean run's evidence
    only ever reached crowd ``L``, so it cannot distinguish a knee at
    ``s`` just inside the cap from one just past it.  (The exact-stop
    twin of this rule, ``s == L``, is :func:`~repro.worlds.grid.cap_boundary`.)
    """
    if stopped is None or clean is None:
        return False
    if stopped.outcome is not StageOutcome.STOPPED:
        return False
    if clean.outcome is StageOutcome.STOPPED:
        return False
    stop = stopped.stopping_crowd_size
    largest = clean.largest_crowd
    if stop is None or not largest:
        return False
    return stop >= largest - tolerance


def knee_tolerance(config: MFCConfig) -> int:
    """Allowed |Δknee| between the exact and cohort stops."""
    return max(2 * config.crowd_step, int(0.3 * config.max_crowd))


def _equivalence_grid(
    scenarios: Sequence[str],
    seed: int = 0,
    config: Optional[MFCConfig] = None,
    fleet: Optional[FleetSpec] = None,
) -> PairedGrid:
    return PairedGrid(
        "equiv", "mode", _ARMS, tuple(scenarios), seed,
        config or grid_config(), fleet or grid_fleet(),
    )


def plan_equivalence_jobs(
    scenarios: Sequence[str],
    seed: int = 0,
    config: Optional[MFCConfig] = None,
    fleet: Optional[FleetSpec] = None,
) -> List[JobSpec]:
    """One exact + one cohort world per scenario, same seed/config."""
    return _equivalence_grid(scenarios, seed, config, fleet).plan()


def equivalence_grid(
    scenarios: Optional[Sequence[str]] = None,
    seed: int = 0,
    quick: bool = False,
    jobs: Optional[int] = None,
    batch: Optional[int] = None,
    store: Optional[Union[ResultStore, str]] = None,
    progress: bool = False,
    config: Optional[MFCConfig] = None,
    fleet: Optional[FleetSpec] = None,
) -> Dict:
    """Run the paired grid; return the comparison report.

    A healthy grid has ``counts["verdict_mismatches"] == 0`` and
    ``counts["knee_out_of_tolerance"] == 0``.
    """
    if scenarios is None:
        scenarios = QUICK_SCENARIOS if quick else tuple(SCENARIO_PRESETS)
    config = config if config is not None else grid_config()

    grid = _equivalence_grid(scenarios, seed, config, fleet)
    tolerance = knee_tolerance(config)
    rows: List[Dict] = []
    counts = {
        "worlds": len(scenarios) * len(grid.arms),
        "compared": 0,
        "matched": 0,
        "soft": 0,
        "boundary": 0,
        "knee_checked": 0,
        "knee_out_of_tolerance": 0,
        "verdict_mismatches": 0,
    }
    for cell in grid.run(jobs=jobs, batch=batch, store=store, progress=progress):
        for pair in cell.pairs:
            e, c = pair.base, pair.variant
            e_stage, c_stage = pair.base_stage, pair.variant_stage
            boundary = c != e and (
                cap_boundary(e_stage, c_stage)
                or _near_cap(e_stage, c_stage, tolerance)
                or _near_cap(c_stage, e_stage, tolerance)
            )
            verdict_ok = (
                c == e
                or c in SOFT_VERDICTS
                or e in SOFT_VERDICTS
                or boundary
            )
            knee_ok = True
            e_stop = e_stage.stopping_crowd_size if e_stage else None
            c_stop = c_stage.stopping_crowd_size if c_stage else None
            if (
                e_stage is not None
                and c_stage is not None
                and e_stage.outcome is StageOutcome.STOPPED
                and c_stage.outcome is StageOutcome.STOPPED
                and e_stop is not None
                and c_stop is not None
            ):
                counts["knee_checked"] += 1
                knee_ok = abs(e_stop - c_stop) <= tolerance
            counts["compared"] += 1
            if c == e:
                counts["matched"] += 1
            elif boundary:
                counts["boundary"] += 1
            elif verdict_ok:
                counts["soft"] += 1
            else:
                counts["verdict_mismatches"] += 1
            if not knee_ok:
                counts["knee_out_of_tolerance"] += 1
            rows.append(
                {
                    "scenario": cell.scenario,
                    "stage": pair.stage,
                    "exact": e.value,
                    "cohort": c.value,
                    "exact_stop": e_stop,
                    "cohort_stop": c_stop,
                    "ok": verdict_ok and knee_ok,
                    "verdict_ok": verdict_ok,
                    "knee_ok": knee_ok,
                }
            )
    return {
        "scenarios": list(scenarios),
        "seed": seed,
        "knee_tolerance": tolerance,
        "rows": rows,
        "counts": counts,
        "mismatches": [row for row in rows if not row["ok"]],
    }


def format_report(report: Dict) -> str:
    """Human-readable grid digest (``repro equiv`` output)."""
    counts = report["counts"]
    lines = [
        f"equivalence grid: {len(report['scenarios'])} scenario(s), "
        f"{counts['worlds']} worlds, knee tolerance "
        f"±{report['knee_tolerance']}"
    ]
    for row in report["rows"]:
        if row["ok"]:
            mark = "ok"
        elif not row["verdict_ok"]:
            mark = "VERDICT MISMATCH"
        else:
            mark = "KNEE OUT OF TOLERANCE"
        stops = ""
        if row["exact_stop"] is not None or row["cohort_stop"] is not None:
            stops = f" stop {row['exact_stop']} -> {row['cohort_stop']}"
        lines.append(
            f"  {row['scenario']:<12} {row['stage']:<12} "
            f"{row['exact']:>12} -> {row['cohort']:<13} {mark}{stops}"
        )
    lines.append(
        f"compared={counts['compared']} matched={counts['matched']} "
        f"soft={counts['soft']} boundary={counts['boundary']} "
        f"knee_checked={counts['knee_checked']} "
        f"knee_out_of_tolerance={counts['knee_out_of_tolerance']} "
        f"verdict_mismatches={counts['verdict_mismatches']}"
    )
    return "\n".join(lines)
