"""Two-phase triage scheduling: indicator sweep, then targeted probing.

The campaign engine's biggest remaining cost multiplier is not how
fast worlds execute but how many requests each world fires.  A full
MFC probe burns hundreds to thousands of requests per site — and at
survey scale most sites are *clean*: every stage ramps to the crowd
cap and reports NoStop, the most expensive possible answer.

Triage splits a campaign into two resumable phases over one result
store:

- **Phase 1 — indicator sweep.**  One near-free
  :class:`~repro.core.indicator.IndicatorRunner` job per site (~13
  unloaded sequential requests, no crowd).  Outcomes stream through
  :func:`~repro.core.inference.classify_indicator`; sites whose every
  stage reads *clean* yield a :class:`TriageRecord` immediately and
  are never crowd-probed.
- **Phase 2 — targeted active probing.**  For sites with probe-worthy
  stages only, one single-stage MFC job per such stage, shaped by
  :func:`targeted_probe_plan`: the BisectKnee planner throughout — in
  *spot mode* for flagged stages, seeded one step above the predicted
  knee with the prediction as ``knee_hint`` (a cold clean first epoch
  refutes in one burst, a degraded one descends straight to the knee)
  — and a straight leap to the crowd cap for structurally ambiguous
  ones.  Fleets are right-sized per stage with several emulated crowd
  members per client (see :data:`PROBE_REQUESTS_PER_CLIENT`), which
  also shrinks the per-stage baseline measurement (one unloaded
  request per live client).  The resulting :class:`TriageRecord`
  joins the indicator verdict to the active ground truth.

Both phases run through :func:`~repro.campaign.executor.iter_campaign`
with deterministic job keys, so a kill at *any* point — mid-sweep,
at the phase boundary, or mid-follow-up — resumes without recomputing
anything committed.  :func:`score_indicator` is the accompanying
precision/recall harness: it runs the indicator *and* an unrestricted
full-MFC probe per scenario and scores the verdicts against the
stages that truly stopped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.campaign.codec import DeadLetter
from repro.campaign.executor import iter_campaign
from repro.campaign.spec import (
    JobSpec,
    ScenarioLike,
    _normalize_scenarios,
    derive_site_seed,
)
from repro.campaign.store import ResultStore
from repro.core.config import MFCConfig
from repro.core.epochs import PlannerSpec
from repro.core.inference import TriageVerdict, classify_indicator
from repro.core.records import MFCResult, StageOutcome
from repro.core.stages import DEFAULT_STAGE_NAMES
from repro.workload.fleet import FleetSpec
from repro.worlds.spec import WorldSpec

#: phase-2 default: the adaptive planner — triage exists to spend
#: fewer requests, and the bisect ramp reaches the knee in far fewer
#: epochs than the paper's linear ramp at the same verdicts
DEFAULT_ACTIVE_PLANNER = PlannerSpec(name="bisect")
#: phase-2 clients each emulate several crowd members per epoch, so a
#: right-sized fleet of ``crowd / m`` boxes covers the largest crowd a
#: probe can request and the per-stage baseline measurement (one
#: unloaded request per live client) shrinks by the same factor.  The
#: multiplier is per stage: request-cheap stages (HEADs, small
#: queries) pack four crowd members onto one box without touching
#: the server-side contention being measured (coarser packing rounds
#: epoch crowds too aggressively at the cap boundary), while
#: bandwidth-bound stages stay at two — more parallel large downloads
#: would saturate the *client's* access link and corrupt the
#: normalized times
PROBE_REQUESTS_PER_CLIENT = {
    "LargeObject": 2,
    "Upload": 2,
    "ConnChurn": 2,
}
PROBE_REQUESTS_DEFAULT = 4
#: growth factor of the seeded bisect ramp on a flagged stage: the
#: first epoch already sits next to the predicted knee, so growth only
#: covers prediction error and a tight factor keeps the bracket small
FLAGGED_GROWTH_FACTOR = 1.5


@dataclass
class TriageRecord:
    """One site's triage outcome: indicator verdict ⋈ active truth."""

    site_id: str
    #: classifier call: "confident" / "ambiguous" / "clean" — or
    #: "dead-letter" when the site's indicator job exhausted its
    #: timeout/retry budget and the site could not be triaged at all
    label: str
    #: predicted most-constrained sub-system, if any
    constraint: Optional[str] = None
    stratum: Optional[str] = None
    #: stage -> predicted stopping crowd (None: no stop predicted)
    predicted_stops: Dict[str, Optional[int]] = field(default_factory=dict)
    #: stage -> "flagged" / "ambiguous" / "clean"
    stage_flags: Dict[str, str] = field(default_factory=dict)
    #: stages phase 2 probed (empty for clean sites)
    probe_stages: Tuple[str, ...] = ()
    indicator_requests: int = 0
    #: whether an active follow-up ran at all
    probed: bool = False
    #: stage -> outcome value ("stopped"/"no-stop"/...) from phase 2
    active_outcomes: Optional[Dict[str, str]] = None
    #: stage -> active stopping crowd (None: NoStop)
    active_stops: Optional[Dict[str, Optional[int]]] = None
    active_requests: int = 0
    margin: float = 2.0

    @property
    def total_requests(self) -> int:
        """The paper's intrusiveness metric for this site, both phases."""
        return self.indicator_requests + self.active_requests


def indicator_world(world: WorldSpec) -> WorldSpec:
    """The phase-1 twin of *world*: same site, seed and background, but
    running the indicator pass instead of MFC stages."""
    return WorldSpec(
        scenario=world.scenario,
        seed=world.seed,
        background_rps=world.background_rps,
        indicator=True,
    )


def plan_triage_jobs(
    sites: Sequence[ScenarioLike],
    seed: int = 0,
    time_limit_s: float = 1e7,
) -> List[JobSpec]:
    """Phase-1 jobs: one indicator world per site, study-seeded.

    Seeding matches :meth:`CampaignSpec.for_study` (``base_seed *
    stride + site_index``) so a triage campaign and a classic campaign
    over the same population draw the same per-site worlds.  An
    indicator world reads no fleet or config, so its job key depends
    on the site and seed alone.
    """
    jobs: List[JobSpec] = []
    for index, (sid, scenario, extra) in enumerate(_normalize_scenarios(sites)):
        world = WorldSpec(
            scenario=scenario,
            seed=derive_site_seed(seed, index),
            indicator=True,
        )
        jobs.append(
            JobSpec.from_world(
                f"{sid}|indicator|seed{seed}",
                world,
                time_limit_s=time_limit_s,
                meta={
                    "scenario_id": sid,
                    "phase": "indicator",
                    "base_seed": seed,
                    "index": index,
                    **extra,
                },
            )
        )
    return jobs


def targeted_probe_plan(
    verdict: TriageVerdict,
    config: Optional[MFCConfig] = None,
    planner: Optional[PlannerSpec] = None,
) -> List[Tuple[str, MFCConfig, PlannerSpec]]:
    """Shape the phase-2 probes: ``(stage, config, planner)`` per stage.

    Every probe runs single-stage with the BisectKnee planner, a
    right-sized multi-requests-per-client crowd supply (see
    :data:`PROBE_REQUESTS_PER_CLIENT`) and no check phase (the
    indicator prediction is the independent corroboration the check
    phase usually provides).  The initial crowd is where the targeting
    lives:

    - a **flagged** stage *spot-checks* one step above its predicted
      stopping crowd: a degraded first epoch confirms the prediction
      and the bisect descends to the knee, a clean one refutes it and
      the stage finishes NoStop without ever ramping to the cap — so
      the probe's fleet (and its baseline cost) is sized to the
      predicted knee, not the cap;
    - an **ambiguous** stage starts at the crowd cap — one clean epoch
      there *is* the NoStop verdict (refutation in a single burst),
      and a degraded one opens a bracket the bisect then narrows.

    Passing an explicit *planner* pins that strategy for every stage
    instead of the per-stage defaults.
    """
    config = config if config is not None else MFCConfig()
    plans: List[Tuple[str, MFCConfig, PlannerSpec]] = []
    for stage in verdict.probe_stages:
        predicted = verdict.predicted_stops.get(stage)
        if verdict.stage_flags.get(stage) == "flagged" and predicted:
            initial = min(
                max(config.min_significant_crowd,
                    predicted + config.crowd_step),
                config.max_crowd,
            )
            stage_planner = PlannerSpec(
                name="bisect",
                params={
                    "growth_factor": FLAGGED_GROWTH_FACTOR,
                    "spot": True,
                    "knee_hint": predicted,
                },
            )
        else:
            initial = config.max_crowd
            stage_planner = PlannerSpec(name="bisect")
        per_client = PROBE_REQUESTS_PER_CLIENT.get(
            stage, PROBE_REQUESTS_DEFAULT
        )
        workers = math.ceil(config.max_crowd / per_client)
        probe_config = replace(
            config,
            requests_per_client=per_client,
            min_clients=workers,
            initial_crowd=initial,
            check_phase=False,
        )
        plans.append((stage, probe_config, planner or stage_planner))
    return plans


def _probe_fleet(fleet_spec: FleetSpec, probe_config: MFCConfig) -> FleetSpec:
    """The right-sized, fully responsive fleet for one shaped probe.

    *probe_config* comes from :func:`targeted_probe_plan`, which set
    ``min_clients`` to exactly the worker count the probe's largest
    possible crowd needs; two spare boxes absorb rounding.
    """
    return replace(
        fleet_spec,
        n_clients=probe_config.min_clients + 2,
        unresponsive_fraction=0.0,
    )


def _active_jobs(
    indicator_job: JobSpec,
    verdict: TriageVerdict,
    config: MFCConfig,
    fleet_spec: FleetSpec,
    planner: Optional[PlannerSpec],
    time_limit_s: float,
    crowd_mode: Optional[str] = None,
) -> List[JobSpec]:
    """The phase-2 twins of a flagged site's indicator job, probing
    with the campaign's *config* and *fleet_spec*."""
    base_world = indicator_job.world
    meta = dict(indicator_job.meta)
    meta["phase"] = "active"
    sid = meta.get("scenario_id", base_world.scenario.name)
    seed = meta.get("base_seed", 0)
    mode_suffix = f"|{crowd_mode}" if crowd_mode else ""
    jobs: List[JobSpec] = []
    for stage, probe_config, stage_planner in targeted_probe_plan(
        verdict, config, planner=planner
    ):
        world = replace(
            base_world,
            indicator=False,
            stages=(stage,),
            planner=stage_planner,
            config=probe_config,
            fleet=_probe_fleet(fleet_spec, probe_config),
            crowd_mode=crowd_mode,
        )
        jobs.append(
            JobSpec.from_world(
                f"{sid}|triage-active|{stage}|seed{seed}{mode_suffix}",
                world,
                time_limit_s=time_limit_s,
                meta={**meta, "stage": stage},
            )
        )
    return jobs


def iter_triage(
    sites: Sequence[ScenarioLike],
    config: Optional[MFCConfig] = None,
    fleet_spec: Optional[FleetSpec] = None,
    seed: int = 0,
    margin: float = 2.0,
    stage_names: Sequence[str] = DEFAULT_STAGE_NAMES,
    planner: Optional[PlannerSpec] = None,
    jobs: Optional[int] = None,
    batch: Optional[int] = None,
    store: Optional[Union[ResultStore, str]] = None,
    progress: bool = False,
    time_limit_s: float = 1e7,
    job_timeout_s: Optional[float] = None,
    retries: int = 0,
    crowd_mode: Optional[str] = None,
) -> Iterator[TriageRecord]:
    """Run the two-phase triage over *sites*, streaming records.

    Clean sites yield as soon as their phase-1 verdict lands; flagged
    and ambiguous sites yield after their last phase-2 stage probe.
    Records stream in no particular order — key on ``record.site_id``.

    *margin* is the triage threshold: a stage predicted to stop at up
    to ``config.max_crowd * margin`` still earns an active probe.
    *planner* pins one strategy for every phase-2 probe; the default
    ``None`` uses the per-stage :func:`targeted_probe_plan` shaping.
    *crowd_mode* selects the epoch fan-out for the phase-2 active
    probes (the phase-1 indicator sweep fields no crowds, so it has
    nothing to aggregate); ``"cohort"`` is the economical choice for
    large-fleet populations.  Both phases share *store*, so a killed
    run — whichever phase it died in — resumes from the committed
    prefix.
    """
    config = config if config is not None else MFCConfig()
    fleet_spec = fleet_spec if fleet_spec is not None else FleetSpec()
    if not isinstance(store, ResultStore):
        store = ResultStore(store)

    phase1 = plan_triage_jobs(sites, seed=seed, time_limit_s=time_limit_s)

    #: join state: job key -> records awaiting that stage probe
    by_key: Dict[str, List[TriageRecord]] = {}
    #: record id -> outstanding phase-2 job count
    remaining: Dict[int, int] = {}
    phase2: List[JobSpec] = []
    seen_keys: Dict[str, JobSpec] = {}
    for outcome in iter_campaign(
        phase1, jobs=jobs, batch=batch, store=store, progress=progress,
        job_timeout_s=job_timeout_s, retries=retries,
    ):
        if isinstance(outcome.result, DeadLetter):
            # the site could not even be swept; surface it rather
            # than silently shrinking the population
            yield TriageRecord(
                site_id=outcome.meta.get(
                    "scenario_id", outcome.result.job_id
                ),
                stratum=outcome.meta.get("stratum"),
                label="dead-letter",
                margin=margin,
            )
            continue
        verdict = classify_indicator(
            outcome.result, config=config, margin=margin,
            stage_names=stage_names,
        )
        record = TriageRecord(
            site_id=outcome.meta.get("scenario_id", verdict.target_name),
            stratum=outcome.meta.get("stratum"),
            label=verdict.label,
            constraint=verdict.constraint,
            predicted_stops=dict(verdict.predicted_stops),
            stage_flags=dict(verdict.stage_flags),
            probe_stages=verdict.probe_stages,
            indicator_requests=outcome.result.total_requests,
            margin=margin,
        )
        if not verdict.probe_stages:
            yield record
            continue
        record.active_outcomes = {}
        record.active_stops = {}
        stage_jobs = _active_jobs(
            outcome.job, verdict, config, fleet_spec, planner, time_limit_s,
            crowd_mode=crowd_mode,
        )
        remaining[id(record)] = len(stage_jobs)
        for job in stage_jobs:
            by_key.setdefault(job.key, []).append(record)
            if job.key not in seen_keys:
                seen_keys[job.key] = job
                phase2.append(job)

    if not phase2:
        return
    for outcome in iter_campaign(
        phase2, jobs=jobs, batch=batch, store=store, progress=progress,
        job_timeout_s=job_timeout_s, retries=retries,
    ):
        result = outcome.result
        for record in by_key[outcome.job.key]:
            if isinstance(result, MFCResult):
                for name, stage in result.stages.items():
                    record.active_outcomes[name] = stage.outcome.value
                    record.active_stops[name] = (
                        stage.stopping_crowd_size
                        if stage.outcome is StageOutcome.STOPPED
                        else None
                    )
                record.active_requests += result.total_requests
            else:
                # dead-lettered probe: record the loss on the stage it
                # was meant to measure so the join still completes and
                # the gap is visible in the record
                stage = outcome.meta.get("stage")
                if stage is not None:
                    record.active_outcomes[stage] = "dead-letter"
                    record.active_stops[stage] = None
            remaining[id(record)] -= 1
            if remaining[id(record)] == 0:
                record.probed = True
                yield record


def run_triage(
    sites: Sequence[ScenarioLike],
    **kwargs,
) -> List[TriageRecord]:
    """:func:`iter_triage`, materialized (small populations only)."""
    return list(iter_triage(sites, **kwargs))


def score_indicator(
    scenarios: Sequence[ScenarioLike],
    config: Optional[MFCConfig] = None,
    fleet_spec: Optional[FleetSpec] = None,
    seed: int = 0,
    margin: float = 2.0,
    stage_names: Sequence[str] = DEFAULT_STAGE_NAMES,
    jobs: Optional[int] = None,
    store: Optional[Union[ResultStore, str]] = None,
    progress: bool = False,
    crowd_mode: Optional[str] = None,
) -> Dict:
    """Score the indicator against full-MFC ground truth.

    Runs, per scenario, the indicator pass *and* an unrestricted
    full-MFC probe (every stage in *stage_names*, the paper's linear
    ramp), then compares the stages the indicator would probe against
    the stages that truly stopped.  Returns per-scenario rows plus
    micro-averaged totals:

    - **recall** — of the stages that truly stopped, how many the
      indicator flagged for active follow-up (a miss is a constraint
      the triage campaign would never find);
    - **precision** — of the stages the indicator flagged, how many
      truly stopped (a false positive only costs extra requests).

    *crowd_mode* selects the epoch fan-out for the ground-truth
    probes; ``"cohort"`` scores the indicator against aggregated
    truth, the recall check CI's cohort-parity job leans on.
    """
    config = config if config is not None else MFCConfig()
    fleet_spec = fleet_spec if fleet_spec is not None else FleetSpec()
    if not isinstance(store, ResultStore):
        store = ResultStore(store)
    rows = _normalize_scenarios(scenarios)

    indicator_jobs = plan_triage_jobs(scenarios, seed=seed)
    mode_suffix = f"|{crowd_mode}" if crowd_mode else ""
    truth_jobs = [
        JobSpec.from_world(
            f"{sid}|triage-truth|seed{seed}{mode_suffix}",
            WorldSpec(
                scenario=scenario,
                fleet=fleet_spec,
                config=config,
                seed=derive_site_seed(seed, index),
                stages=tuple(stage_names),
                crowd_mode=crowd_mode,
            ),
            meta={"scenario_id": sid, "phase": "truth", "index": index},
        )
        for index, (sid, scenario, _extra) in enumerate(rows)
    ]

    by_site: Dict[str, Dict] = {}
    for outcome in iter_campaign(
        indicator_jobs + truth_jobs, jobs=jobs, store=store, progress=progress,
    ):
        entry = by_site.setdefault(outcome.meta["scenario_id"], {})
        entry[outcome.meta["phase"]] = outcome.result

    scored: List[Dict] = []
    hits = flagged_total = true_total = 0
    for sid, _scenario, _extra in rows:
        indicator = by_site[sid]["indicator"]
        truth = by_site[sid]["truth"]
        verdict = classify_indicator(
            indicator, config=config, margin=margin, stage_names=stage_names
        )
        true_constrained = {
            name
            for name, stage in truth.stages.items()
            if stage.outcome is StageOutcome.STOPPED
        }
        predicted = set(verdict.probe_stages) & set(truth.stages)
        caught = true_constrained & predicted
        recall = (
            len(caught) / len(true_constrained) if true_constrained else 1.0
        )
        precision = len(caught) / len(predicted) if predicted else 1.0
        hits += len(caught)
        flagged_total += len(predicted)
        true_total += len(true_constrained)
        scored.append(
            {
                "scenario": sid,
                "label": verdict.label,
                "constraint": verdict.constraint,
                "true_constrained": sorted(true_constrained),
                "predicted": sorted(predicted),
                "recall": recall,
                "precision": precision,
                "indicator_requests": indicator.total_requests,
                "full_requests": truth.total_requests,
            }
        )
    return {
        "scenarios": scored,
        "recall": hits / true_total if true_total else 1.0,
        "precision": hits / flagged_total if flagged_total else 1.0,
        "margin": margin,
        "stage_names": list(stage_names),
        "crowd_mode": crowd_mode,
    }
