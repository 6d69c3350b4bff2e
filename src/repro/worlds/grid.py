"""Paired verdict grids: the runner behind ``repro chaos`` and ``repro equiv``.

Per registry scenario, :class:`PairedGrid` plans a *base* world plus
*variant* worlds that differ from it in one knob (a fault plan, the
crowd mode), runs them all as one campaign
(:func:`~repro.campaign.executor.iter_campaign`: parallel, cached,
resumable) and yields per-stage verdict pairs.  Each harness keeps its
own ok-rule, ``counts`` and report format; they share the world shape,
the soft-verdict set and the cap-boundary rule defined here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.campaign.executor import iter_campaign
from repro.campaign.spec import JobSpec, derive_site_seed
from repro.campaign.store import ResultStore
from repro.core.config import MFCConfig
from repro.core.inference import Provisioning, infer_constraints
from repro.core.records import MFCResult, StageOutcome, StageResult
from repro.workload.fleet import FleetSpec
from repro.worlds.registry import SCENARIO_PRESETS
from repro.worlds.spec import WorldSpec

#: verdicts that are explicitly "no confident answer" — always ok
SOFT_VERDICTS = frozenset({Provisioning.INCONCLUSIVE, Provisioning.UNKNOWN})


def grid_config() -> MFCConfig:
    """The grid's world shape: small, hardened, fast.

    Grid worlds exist to compare verdicts, not to reproduce §4
    numbers, so the crowd cap and fleet are shrunk until one world
    runs in seconds.  ``hardening=True`` is pinned explicitly so the
    fault-free baselines run the *hardened* coordinator too — the grid
    compares hardened-to-hardened, isolating the varied knob as the
    only variable.

    The check phase stays ON: with small crowds a single borderline
    epoch sits within noise of θ, and timeline perturbation from a
    fault in an *earlier* stage is enough to flip an unconfirmed
    single-epoch stop.  The paper's N−1/N/N+1 confirmation is the
    designed defense against exactly that.

    The crowd cap is chosen OFF every preset scenario's knee: a knee
    sitting exactly at the cap makes the stop-vs-NoStop call flip on
    timeline jitter alone, which would read as verdict instability the
    grid wrongly blames on the varied knob.  The registry knees sit
    near 25-30 (decisive headroom below 40) or above 45 (decisively
    clean at 40).
    """
    return MFCConfig(
        max_crowd=40,
        initial_crowd=5,
        crowd_step=5,
        min_significant_crowd=15,
        min_clients=24,
        hardening=True,
    )


def grid_fleet() -> FleetSpec:
    """A compact, fully responsive fleet for the grid worlds.

    Sized so the client supply never caps the ramp below
    ``max_crowd``: a knee sitting exactly on the feasible cap makes
    the NoStop-vs-confirmed-stop call flip on timeline jitter, which
    reads as verdict instability the grid would wrongly blame on the
    varied knob.
    """
    return FleetSpec(n_clients=54, unresponsive_fraction=0.0)


def cap_boundary(a: Optional[StageResult], b: Optional[StageResult]) -> bool:
    """True when the two stages disagree only at the edge of the
    tested crowd range.

    A stop *exactly at* the largest crowd one run tested, against a
    clean run of that same largest crowd, are overlapping claims —
    "knee = cap" vs "knee > cap", one crowd step apart.  On a site
    whose degradation ramps gradually through θ right at the cap, that
    call flips on sample noise alone (the fault-free baseline itself
    flips it across seeds), so the grid counts the pair as a boundary
    agreement rather than a silent wrong.  A stop strictly *inside*
    the other run's tested range never qualifies.
    """
    if a is None or b is None:
        return False
    if {a.outcome, b.outcome} != {StageOutcome.STOPPED, StageOutcome.NO_STOP}:
        return False
    stopped, clean = (a, b) if a.outcome is StageOutcome.STOPPED else (b, a)
    return (
        stopped.stopping_crowd_size is not None
        and stopped.stopping_crowd_size >= clean.largest_crowd
    )


@dataclass(frozen=True)
class Arm:
    """One world per scenario in a paired grid."""

    #: job-id segment (``baseline``, ``stall``, ``cohort``, ...)
    label: str
    #: the value stored under the grid's job-meta key for this arm
    meta: Optional[str]
    #: base world → this arm's world (None: the base world itself)
    vary: Optional[Callable[[WorldSpec], WorldSpec]] = None


@dataclass(frozen=True)
class StagePair:
    """One stage's base and variant verdicts."""

    stage: str
    base: Provisioning
    variant: Provisioning
    base_stage: Optional[StageResult]
    variant_stage: Optional[StageResult]


@dataclass(frozen=True)
class GridCell:
    """One scenario × variant arm, with one pair per base stage."""

    scenario: str
    arm: Optional[str]
    variant: MFCResult
    pairs: List[StagePair]


@dataclass(frozen=True)
class PairedGrid:
    """Scenarios × arms, where ``arms[0]`` is the base world.

    Job ids read ``{name}|{scenario}|{arm label}|seed{seed}``, with a
    ``|{crowd_mode}`` suffix when the base worlds pin a crowd mode so
    grids in different modes cache separately.
    """

    name: str
    meta_key: str
    arms: Tuple[Arm, ...]
    scenarios: Tuple[str, ...]
    seed: int = 0
    config: MFCConfig = field(default_factory=grid_config)
    fleet: FleetSpec = field(default_factory=grid_fleet)
    crowd_mode: Optional[str] = None

    def plan(self) -> List[JobSpec]:
        """Base plus variant worlds per scenario, same seed/config."""
        mode_suffix = f"|{self.crowd_mode}" if self.crowd_mode else ""
        jobs: List[JobSpec] = []
        for index, name in enumerate(self.scenarios):
            if name not in SCENARIO_PRESETS:
                raise ValueError(
                    f"unknown scenario {name!r} (have: {sorted(SCENARIO_PRESETS)})"
                )
            base = WorldSpec(
                scenario=SCENARIO_PRESETS[name](),
                fleet=self.fleet,
                config=self.config,
                seed=derive_site_seed(self.seed, index),
                crowd_mode=self.crowd_mode,
            )
            for arm in self.arms:
                jobs.append(
                    JobSpec.from_world(
                        f"{self.name}|{name}|{arm.label}|seed{self.seed}{mode_suffix}",
                        arm.vary(base) if arm.vary is not None else base,
                        meta={"scenario": name, self.meta_key: arm.meta},
                    )
                )
        return jobs

    def run(
        self,
        jobs: Optional[int] = None,
        batch: Optional[int] = None,
        store: Optional[Union[ResultStore, str]] = None,
        progress: bool = False,
    ) -> Iterator[GridCell]:
        """Run every planned world, then yield the cells in scenario ×
        variant order (independent of completion order)."""
        results: Dict[Tuple[str, Optional[str]], MFCResult] = {}
        for outcome in iter_campaign(
            self.plan(), jobs=jobs, batch=batch, store=store, progress=progress
        ):
            results[(outcome.meta["scenario"], outcome.meta[self.meta_key])] = (
                outcome.result
            )
        base_arm, variants = self.arms[0], self.arms[1:]
        for name in self.scenarios:
            base = results[(name, base_arm.meta)]
            base_verdicts = _verdicts(base)
            for arm in variants:
                variant = results[(name, arm.meta)]
                variant_verdicts = _verdicts(variant)
                pairs = [
                    StagePair(
                        stage=stage,
                        base=base_verdicts.get(stage, Provisioning.UNKNOWN),
                        variant=variant_verdicts.get(stage, Provisioning.UNKNOWN),
                        base_stage=base.stages.get(stage),
                        variant_stage=variant.stages.get(stage),
                    )
                    for stage in base.stages
                ]
                yield GridCell(name, arm.meta, variant, pairs)


def _verdicts(result: MFCResult) -> Dict[str, Provisioning]:
    return dict(infer_constraints(result).verdicts)
