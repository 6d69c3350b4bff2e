"""Cohort-vs-exact equivalence: the aggregation soundness property.

The full-registry grid is the CI cohort-parity job (``repro equiv``);
here the --quick slice — the three structurally different server
shapes — runs as a tier-1 property test, plus the spec-level
byte-stability guarantees the grid rides on.
"""

from repro.worlds.codec import encode
from repro.worlds.equivalence import (
    QUICK_SCENARIOS,
    equivalence_grid,
    knee_tolerance,
    plan_equivalence_jobs,
)
from repro.worlds.grid import grid_config


def test_quick_grid_has_no_verdict_mismatches():
    report = equivalence_grid(quick=True, seed=0, jobs=2)
    counts = report["counts"]
    assert counts["compared"] > 0
    assert counts["verdict_mismatches"] == 0
    assert counts["knee_out_of_tolerance"] == 0
    # the grid must actually exercise both claims, not vacuously pass
    assert counts["matched"] + counts["boundary"] + counts["soft"] == (
        counts["compared"]
    )


def test_plan_pairs_every_scenario_in_both_modes():
    jobs = plan_equivalence_jobs(QUICK_SCENARIOS, seed=3)
    assert len(jobs) == 2 * len(QUICK_SCENARIOS)
    by_scenario = {}
    for job in jobs:
        by_scenario.setdefault(job.meta["scenario"], set()).add(
            job.meta["mode"]
        )
    assert all(modes == {"exact", "cohort"} for modes in by_scenario.values())
    # paired worlds differ in crowd_mode and nothing else
    for name in QUICK_SCENARIOS:
        exact, cohort = (
            next(
                j.world
                for j in jobs
                if j.meta == {"scenario": name, "mode": mode}
            )
            for mode in ("exact", "cohort")
        )
        assert exact.crowd_mode is None
        assert cohort.crowd_mode == "cohort"
        assert exact.seed == cohort.seed
        assert exact.config == cohort.config


def test_exact_and_cohort_worlds_hash_apart():
    jobs = plan_equivalence_jobs(("lab",), seed=0)
    exact = next(j.world for j in jobs if j.meta["mode"] == "exact")
    assert encode(exact, cosmetic=False)["crowd_mode"] is None
    cohort = next(j.world for j in jobs if j.meta["mode"] == "cohort")
    assert encode(cohort, cosmetic=False)["crowd_mode"] == "cohort"
    # and the two specs hash apart (the store must never alias them)
    assert exact.spec_hash != cohort.spec_hash


def test_knee_tolerance_tracks_the_ramp_resolution():
    config = grid_config()
    tol = knee_tolerance(config)
    assert tol == max(2 * config.crowd_step, int(0.3 * config.max_crowd))
    assert tol >= 2 * config.crowd_step
