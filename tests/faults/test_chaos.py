"""Chaos harness: grid planning, the ok-rule, and the quick grid.

The quick grid run here is the same invariant CI's chaos-smoke job
asserts: a faulted experiment may abort or come back inconclusive,
but never silently flips a verdict.
"""

import pytest

from repro.core.records import StageOutcome, StageResult
from repro.faults.chaos import (
    QUICK_FAULTS,
    QUICK_SCENARIOS,
    chaos_grid,
    format_report,
    plan_chaos_jobs,
)
from repro.worlds.grid import cap_boundary


def stage(outcome, stop=None, largest=40):
    return StageResult(
        stage_name="Base",
        outcome=outcome,
        stopping_crowd_size=stop,
        max_crowd_tested=largest,
    )


# -- planning ---------------------------------------------------------------------


def test_plan_is_baseline_plus_one_world_per_fault():
    jobs = plan_chaos_jobs(["lab", "qtnp"], ["dropout", "crash"], seed=3)
    assert len(jobs) == 6
    assert [j.job_id for j in jobs[:3]] == [
        "chaos|lab|baseline|seed3",
        "chaos|lab|dropout|seed3",
        "chaos|lab|crash|seed3",
    ]
    assert jobs[0].world.faults is None
    assert jobs[1].world.faults is not None
    # same scenario, same seed: the fault plan is the only difference
    assert jobs[1].world.seed == jobs[0].world.seed
    assert jobs[1].world.config == jobs[0].world.config


def test_plan_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown scenario"):
        plan_chaos_jobs(["atlantis"], ["dropout"])
    with pytest.raises(ValueError, match="unknown fault preset"):
        plan_chaos_jobs(["lab"], ["gremlins"])


# -- the cap-boundary rule --------------------------------------------------------


def test_stop_at_the_cap_overlaps_a_nostop_at_the_cap():
    stopped = stage(StageOutcome.STOPPED, stop=40)
    clean = stage(StageOutcome.NO_STOP)
    assert cap_boundary(stopped, clean)
    assert cap_boundary(clean, stopped)  # symmetric


def test_stop_inside_the_tested_range_is_a_real_disagreement():
    stopped = stage(StageOutcome.STOPPED, stop=25)
    clean = stage(StageOutcome.NO_STOP)
    assert not cap_boundary(stopped, clean)


def test_cap_boundary_needs_a_stop_nostop_pair():
    clean = stage(StageOutcome.NO_STOP)
    assert not cap_boundary(clean, stage(StageOutcome.NO_STOP))
    assert not cap_boundary(clean, stage(StageOutcome.ABORTED))
    assert not cap_boundary(None, clean)
    assert not cap_boundary(clean, None)


# -- the quick grid ---------------------------------------------------------------


def test_quick_grid_has_no_silently_wrong_verdicts(tmp_path):
    report = chaos_grid(quick=True, jobs=2, store=tmp_path / "chaos.cache")
    counts = report["counts"]
    assert counts["worlds"] == len(QUICK_SCENARIOS) * (len(QUICK_FAULTS) + 1)
    assert counts["compared"] > 0
    assert counts["silently_wrong"] == 0
    assert report["silently_wrong"] == []
    assert all(row["ok"] for row in report["rows"])
    text = format_report(report)
    assert "silently_wrong=0" in text
    assert "SILENTLY WRONG" not in text

    # the grid is an ordinary campaign: a re-run resumes from cache
    # with the identical verdict table
    again = chaos_grid(quick=True, jobs=2, store=tmp_path / "chaos.cache")
    assert again["rows"] == report["rows"]
