"""Chaos harness: faults × scenarios, with a no-silent-wrong check.

The hardening contract this repo makes (ISSUE: robustness PR) is not
"faulted experiments still produce answers" — it is the paper's
non-intrusiveness/validity rule turned into an invariant: **a faulted
experiment may abort, may come back inconclusive, but must never
return a confidently wrong verdict.**

:func:`chaos_grid` runs that invariant as a grid: for each scenario a
hardened fault-free baseline world, plus one world per fault preset
(same seed, same config — the fault plan is the only difference).
Every world is an ordinary deterministic campaign job run by the
shared paired-grid runner (:class:`~repro.worlds.grid.PairedGrid`), so
the grid parallelizes, caches, and resumes like any campaign.  Per
stage the faulted verdict is compared against the baseline verdict
under the symmetric ok-rule:

    ok  ⇔  faulted == baseline
           or faulted ∈ {inconclusive, unknown}
           or baseline ∈ {inconclusive, unknown}
           or the pair disagrees only at the cap boundary

(``unknown`` covers aborted/skipped stages; a baseline that is itself
inconclusive pins nothing, so the comparison is vacuous; a stop
*exactly at* the other run's largest tested crowd overlaps its NoStop
claim to within one crowd step — see
:func:`~repro.worlds.grid.cap_boundary`).
Anything else is *silently wrong* — the failure mode the hardened
coordinator and the inference downgrades exist to prevent — and fails
the grid.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Union

from repro.campaign.spec import JobSpec
from repro.campaign.store import ResultStore
from repro.core.config import MFCConfig
from repro.core.inference import Provisioning
from repro.faults.spec import FAULT_PRESETS
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

#: the --quick slice: two structurally different scenarios (static
#: single box, query-heavy) × three fault families (client attrition,
#: in-flight request loss, server state loss)
QUICK_SCENARIOS = ("lab", "qtnp")
QUICK_FAULTS = ("dropout", "blackhole", "crash")


def _chaos_grid(
    scenarios: Sequence[str],
    faults: Sequence[str],
    seed: int = 0,
    config: Optional[MFCConfig] = None,
    fleet: Optional[FleetSpec] = None,
    crowd_mode: Optional[str] = None,
) -> PairedGrid:
    """A fault-free baseline arm plus one arm per fault preset."""
    for fault in faults:
        if fault not in FAULT_PRESETS:
            raise ValueError(
                f"unknown fault preset {fault!r} "
                f"(have: {sorted(FAULT_PRESETS)})"
            )
    arms = (Arm("baseline", None),) + tuple(
        Arm(fault, fault, lambda w, f=fault: replace(w, faults=FAULT_PRESETS[f]()))
        for fault in faults
    )
    return PairedGrid(
        "chaos", "fault", arms, tuple(scenarios), seed,
        config or grid_config(), fleet or grid_fleet(), crowd_mode,
    )


def plan_chaos_jobs(
    scenarios: Sequence[str],
    faults: Sequence[str],
    seed: int = 0,
    config: Optional[MFCConfig] = None,
    fleet: Optional[FleetSpec] = None,
    crowd_mode: Optional[str] = None,
) -> List[JobSpec]:
    """One baseline + one world per fault, per scenario.

    ``crowd_mode="cohort"`` runs the whole grid through cohort
    aggregation — the hardening contract must hold there too, since
    large-fleet campaigns default to cohort worlds.  The job keys get
    a mode suffix so exact and cohort grids cache separately.
    """
    return _chaos_grid(scenarios, faults, seed, config, fleet, crowd_mode).plan()


def chaos_grid(
    scenarios: Optional[Sequence[str]] = None,
    faults: Optional[Sequence[str]] = None,
    seed: int = 0,
    quick: bool = False,
    jobs: Optional[int] = None,
    batch: Optional[int] = None,
    store: Optional[Union[ResultStore, str]] = None,
    progress: bool = False,
    config: Optional[MFCConfig] = None,
    fleet: Optional[FleetSpec] = None,
    crowd_mode: Optional[str] = None,
) -> Dict:
    """Run the chaos grid; return the comparison report.

    The report carries per-cell ``rows`` (scenario × fault × stage),
    aggregate ``counts`` and the list of ``silently_wrong`` cells.  A
    healthy grid has ``counts["silently_wrong"] == 0`` — that is the
    assertion CI's chaos-smoke job and ``repro chaos`` make.
    ``crowd_mode="cohort"`` asserts the same contract with cohort
    aggregation on.
    """
    if scenarios is None:
        scenarios = QUICK_SCENARIOS if quick else tuple(SCENARIO_PRESETS)
    if faults is None:
        faults = QUICK_FAULTS if quick else tuple(FAULT_PRESETS)

    grid = _chaos_grid(scenarios, faults, seed, config, fleet, crowd_mode)
    rows: List[Dict] = []
    counts = {
        "worlds": len(scenarios) * len(grid.arms),
        "compared": 0,
        "matched": 0,
        "inconclusive": 0,
        "unknown": 0,
        "boundary": 0,
        "aborted_experiments": 0,
        "silently_wrong": 0,
    }
    for cell in grid.run(jobs=jobs, batch=batch, store=store, progress=progress):
        faulted = cell.variant
        if faulted.aborted:
            counts["aborted_experiments"] += 1
        for pair in cell.pairs:
            b, f = pair.base, pair.variant
            boundary = f != b and cap_boundary(pair.base_stage, pair.variant_stage)
            ok = f == b or f in SOFT_VERDICTS or b in SOFT_VERDICTS or boundary
            counts["compared"] += 1
            if f == b:
                counts["matched"] += 1
            elif boundary:
                counts["boundary"] += 1
            elif f is Provisioning.INCONCLUSIVE:
                counts["inconclusive"] += 1
            elif f is Provisioning.UNKNOWN:
                counts["unknown"] += 1
            if not ok:
                counts["silently_wrong"] += 1
            rows.append(
                {
                    "scenario": cell.scenario,
                    "fault": cell.arm,
                    "stage": pair.stage,
                    "baseline": b.value,
                    "faulted": f.value,
                    "ok": ok,
                    "note": (
                        faulted.abort_reason
                        if faulted.aborted
                        else (
                            pair.variant_stage.reason if pair.variant_stage else ""
                        )
                    ),
                }
            )
    return {
        "scenarios": list(scenarios),
        "faults": list(faults),
        "seed": seed,
        "crowd_mode": crowd_mode,
        "rows": rows,
        "counts": counts,
        "silently_wrong": [row for row in rows if not row["ok"]],
    }


def format_report(report: Dict) -> str:
    """Human-readable grid digest (``repro chaos`` output)."""
    counts = report["counts"]
    lines = [
        f"chaos grid: {len(report['scenarios'])} scenario(s) × "
        f"{len(report['faults'])} fault(s), {counts['worlds']} worlds"
    ]
    for row in report["rows"]:
        mark = "ok" if row["ok"] else "SILENTLY WRONG"
        lines.append(
            f"  {row['scenario']:<12} {row['fault']:<16} "
            f"{row['stage']:<12} {row['baseline']:>12} -> "
            f"{row['faulted']:<13} {mark}"
        )
    lines.append(
        f"compared={counts['compared']} matched={counts['matched']} "
        f"inconclusive={counts['inconclusive']} unknown={counts['unknown']} "
        f"boundary={counts['boundary']} "
        f"silently_wrong={counts['silently_wrong']}"
    )
    return "\n".join(lines)
