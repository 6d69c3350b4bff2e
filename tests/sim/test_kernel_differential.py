"""Differential property suite: timer-wheel kernel vs. frozen seed.

Each test instance replays a block of randomly generated operation
sequences (schedule / cancel / reschedule / duplicate instants /
cancel-inside-callback / negative delays / Events / instant-end /
same-instant chains) on both the live kernel and the frozen seed copy,
driven by ``run``, by ``run_until_complete`` then ``run``, or by
``step``, and asserts the full observation logs match — fire order,
``now`` at every fire, raised error types, final clock.  See
:mod:`repro.sim.difftest`.

The default matrix runs 250 sequences (10 blocks x 25) in a few
hundred milliseconds.  ``REPRO_DIFFTEST_CASES`` scales the per-block
count up for CI soak runs.
"""

from __future__ import annotations

import os

import pytest

from repro.sim import difftest

#: sequences per parametrized block (x10 blocks)
CASES_PER_BLOCK = int(os.environ.get("REPRO_DIFFTEST_CASES", "25"))

#: disjoint seed ranges so every block explores fresh sequences
BLOCK_SEEDS = [0, 1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000]


@pytest.mark.parametrize("seed0", BLOCK_SEEDS)
def test_differential_block(seed0: int) -> None:
    # fuzz() alternates run-mode and step-mode drives internally and
    # raises with a shrunken minimal reproducer on the first divergence
    assert difftest.fuzz(CASES_PER_BLOCK, seed0=seed0) == CASES_PER_BLOCK


@pytest.mark.parametrize("seed", [11, 222, 3333])
def test_differential_long_sequences(seed: int) -> None:
    # longer programs raise the odds of deep same-instant cascades and
    # cancel-chains that short blocks rarely reach
    for mode in difftest.MODES:
        difftest.check_sequence(seed, n_ops=160, mode=mode)


def test_generation_is_deterministic() -> None:
    assert difftest.generate_ops(42, 40) == difftest.generate_ops(42, 40)


def test_replay_produces_observations() -> None:
    # guard against the suite going vacuously green: a generated
    # sequence must actually fire callbacks, not just error out
    from repro.sim.kernel import Simulator

    fired = 0
    for seed in range(20):
        log = difftest.replay(Simulator, difftest.generate_ops(seed, 40))
        fired += sum(1 for entry in log if entry[0] == "fire")
    assert fired > 100


def test_shrinker_reduces_and_preserves_divergence() -> None:
    # mutation canary: a kernel whose cancel() silently does nothing
    # must be caught, and the shrinker must hand back a smaller
    # sequence that still diverges
    from repro.sim.kernel import Simulator, Timer

    class BrokenCancelTimer(Timer):
        def cancel(self) -> None:  # pragma: no cover - intentionally wrong
            pass

    class BrokenSim(Simulator):
        def call_in(self, delay, fn):  # type: ignore[override]
            timer = super().call_in(delay, fn)
            return BrokenCancelTimer(timer.sim, timer.when, timer.fn)

    real = difftest.Simulator
    difftest.Simulator = BrokenSim  # type: ignore[misc]
    try:
        for seed in range(50):
            ops = difftest.generate_ops(seed, 40)
            if difftest.mismatch(ops) is not None:
                minimal = difftest.shrink(ops)
                assert len(minimal) <= len(ops)
                assert difftest.mismatch(minimal) is not None
                break
        else:  # pragma: no cover
            pytest.fail("broken cancel was never detected in 50 seeds")
    finally:
        difftest.Simulator = real  # type: ignore[misc]


def test_replay_runs_processes() -> None:
    # spawned processes must start, step and be interrupted on both
    # kernels, or the spawn op compares nothing
    from repro.sim.kernel import Simulator

    steps = interrupted = 0
    for seed in range(40):
        log = difftest.replay(Simulator, difftest.generate_ops(seed, 40))
        for entry in log:
            if entry[0] == "proc":
                steps += 1
                interrupted += isinstance(entry[3], tuple)
    assert steps > 100
    assert interrupted > 0


def test_late_process_start_is_detected() -> None:
    # mutation canary: a process start that lands after its instant
    # instead of in its FIFO slot must diverge from the seed kernel
    from repro.sim.kernel import Simulator

    class LateStartSim(Simulator):
        def _push_now(self, fn):  # type: ignore[override]
            self.call_in(1e-9, fn)

    real = difftest.Simulator
    difftest.Simulator = LateStartSim  # type: ignore[misc]
    try:
        assert any(
            difftest.mismatch(difftest.generate_ops(seed, 40)) is not None
            for seed in range(50)
        )
    finally:
        difftest.Simulator = real  # type: ignore[misc]


def test_complete_mode_stops_mid_chain() -> None:
    # not vacuous: run_until_complete returns with links of a
    # same-instant chain still queued at its instant, and the run that
    # follows fires them there
    from repro.sim.kernel import Simulator

    parked = 0
    for seed in range(200):
        log = difftest.replay(Simulator, difftest.generate_ops(seed, 40), mode="complete")
        kinds = [entry[0] for entry in log]
        if "complete" in kinds:
            at = kinds.index("complete")
            stop = log[at][2]
            parked += any(
                entry[0] == "chain" and entry[3] == stop for entry in log[at + 1:]
            )
    assert parked > 0
