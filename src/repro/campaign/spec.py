"""Declarative experiment campaigns.

A *campaign* is a grid of independent MFC jobs — scenario × stage ×
config-variant × planner × seed — expanded into :class:`JobSpec`
entries whose order and seeding are deterministic.  Each job carries everything a
worker process needs to rebuild its world from scratch, plus a
*stable key*: a SHA-256 over a canonical encoding of the
execution-relevant parameters.  The key is what makes campaigns
resumable — an interrupted run skips every job whose key is already in
the result store, and repeated benchmark runs hit cache.

Two job payloads exist:

- **world jobs** carry a declarative
  :class:`~repro.worlds.spec.WorldSpec` verbatim: anything the world
  layer can describe (preset scenarios, ablation topologies, named
  synthetic servers, indicator passes) is campaignable;
- **callable jobs** name a module-level function (``"pkg.mod:func"``)
  and JSON-able kwargs — the residual escape hatch for jobs that
  post-process a world beyond its ``MFCResult`` (e.g. the
  synchronization ablation's access-log arrival offsets).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import __version__
from repro.core.config import MFCConfig
from repro.core.epochs import PlannerSpec
from repro.core.stages import StageKind, stage_named
from repro.server.presets import Scenario
from repro.workload.fleet import FleetSpec
from repro.workload.populations import PopulationSite
from repro.worlds.codec import stable_key
from repro.worlds.spec import WorldSpec

#: per-site seed stride — the historical ``run_stage_study`` formula
#: ``seed * 1_000_003 + site_index``; campaigns must reproduce it so a
#: parallel study returns byte-identical measurements
SEED_STRIDE = 1_000_003


def derive_site_seed(base_seed: int, site_index: int) -> int:
    """The study driver's per-site world seed."""
    return base_seed * SEED_STRIDE + site_index


@dataclass
class JobSpec:
    """One independent unit of campaign work."""

    job_id: str
    #: world-job payload: a declarative world, carried verbatim
    world: Optional[WorldSpec] = None
    #: callable-job payload: ``"package.module:function"``
    func: Optional[str] = None
    kwargs: Dict = field(default_factory=dict)
    time_limit_s: float = 1e7
    #: passthrough labels (site_id, stratum, ...) — never hashed
    meta: Dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if (self.world is None) == (self.func is None):
            raise ValueError(
                f"job {self.job_id!r} needs exactly one of world= or func="
            )
        if self.func is not None and ":" not in self.func:
            raise ValueError(f"func must look like 'pkg.mod:callable': {self.func!r}")

    @property
    def key(self) -> str:
        """Stable identity of this job's execution parameters."""
        cached = self.__dict__.get("_key")
        if cached is None:
            cached = stable_key(
                {
                    # simulator behaviour can change between releases;
                    # versioning the key keeps old stores from silently
                    # replaying stale results (wipe the store, or bump
                    # __version__, after behavioural changes mid-release)
                    "repro_version": __version__,
                    "world": self.world,
                    "func": self.func,
                    "kwargs": self.kwargs,
                    "time_limit_s": self.time_limit_s,
                }
            )
            self.__dict__["_key"] = cached
        return cached

    @classmethod
    def from_world(
        cls,
        job_id: str,
        world: WorldSpec,
        time_limit_s: float = 1e7,
        meta: Optional[Dict] = None,
    ) -> "JobSpec":
        """A job that runs one declarative world to completion."""
        return cls(
            job_id=job_id,
            world=world,
            time_limit_s=time_limit_s,
            meta=dict(meta or {}),
        )


ScenarioLike = Union[PopulationSite, Tuple[str, Scenario], Scenario]


def _normalize_scenarios(
    scenarios: Sequence[ScenarioLike],
) -> List[Tuple[str, Scenario, Dict]]:
    """(scenario_id, scenario, extra-meta) triples in input order."""
    rows: List[Tuple[str, Scenario, Dict]] = []
    for entry in scenarios:
        if isinstance(entry, PopulationSite):
            rows.append(
                (
                    entry.site_id,
                    entry.scenario,
                    {"site_id": entry.site_id, "stratum": entry.stratum},
                )
            )
        elif isinstance(entry, Scenario):
            rows.append((entry.name, entry, {}))
        else:
            sid, scenario = entry
            rows.append((sid, scenario, {}))
    return rows


@dataclass
class CampaignSpec:
    """A named, fully expanded list of jobs."""

    name: str
    jobs: List[JobSpec] = field(default_factory=list)

    def expand(self) -> List[JobSpec]:
        """The jobs, in deterministic campaign order."""
        return list(self.jobs)

    def __len__(self) -> int:
        return len(self.jobs)

    @classmethod
    def grid(
        cls,
        name: str,
        scenarios: Sequence[ScenarioLike],
        stages: Sequence[Union[StageKind, str]],
        variants: Sequence[Tuple[str, Optional[MFCConfig]]] = (("default", None),),
        seeds: Sequence[int] = (0,),
        fleet_spec: Optional[FleetSpec] = None,
        per_site_seeding: bool = True,
        runner_kwargs: Optional[Dict] = None,
        time_limit_s: float = 1e7,
        planners: Sequence[Tuple[str, Optional[PlannerSpec]]] = (("default", None),),
    ) -> "CampaignSpec":
        """Expand seeds × variants × planners × stages × scenarios.

        Scenario entries may be :class:`PopulationSite` objects,
        ``(id, Scenario)`` pairs, or bare scenarios.  With
        *per_site_seeding* (the default) each job's world seed is
        ``base_seed * SEED_STRIDE + scenario_index`` — exactly the
        historical study seeding — otherwise the base seed is used
        unchanged for every scenario.

        Stage entries are registry stage *names* ("Base", "Upload",
        ...) or :class:`StageKind` members (read as their names);
        *planners* adds an epoch-strategy axis of ``(label,
        PlannerSpec or None)`` pairs.  Every cell is a declarative
        world job running its one stage.
        """
        rows = _normalize_scenarios(scenarios)
        # runner_kwargs carries extra world knobs (use_naive_scheduling,
        # monitor_interval_s, ...); axes the grid manages itself must
        # come through their own parameters
        reserved = sorted(
            set(runner_kwargs or {})
            & {"scenario", "fleet", "fleet_spec", "config", "seed",
               "stages", "planner"}
        )
        if reserved:
            raise ValueError(
                f"runner_kwargs may not carry grid axes: {reserved}; use "
                "the dedicated grid parameters instead"
            )
        jobs: List[JobSpec] = []
        for base_seed in seeds:
            for variant_name, config in variants:
                for planner_label, planner in planners:
                    # an explicit default-linear entry IS the default:
                    # fold it so the cell shares the default cell's key
                    if planner is not None and planner == PlannerSpec():
                        planner = None
                    planner_tag = "" if planner is None else f"|{planner_label}"
                    for stage in stages:
                        stage_name = (
                            stage.value
                            if isinstance(stage, StageKind)
                            else stage_named(stage).name
                        )
                        for index, (sid, scenario, extra) in enumerate(rows):
                            world = WorldSpec(
                                scenario=scenario,
                                fleet=(
                                    fleet_spec
                                    if fleet_spec is not None
                                    else FleetSpec()
                                ),
                                config=config if config is not None else MFCConfig(),
                                seed=(
                                    derive_site_seed(base_seed, index)
                                    if per_site_seeding
                                    else base_seed
                                ),
                                stages=(stage_name,),
                                planner=planner,
                                **dict(runner_kwargs or {}),
                            )
                            jobs.append(
                                JobSpec.from_world(
                                    f"{sid}|{stage_name}|{variant_name}"
                                    f"|seed{base_seed}{planner_tag}",
                                    world,
                                    time_limit_s=time_limit_s,
                                    meta={
                                        "scenario_id": sid,
                                        "stage": stage_name,
                                        "variant": variant_name,
                                        "planner": planner_label,
                                        "base_seed": base_seed,
                                        "index": index,
                                        **extra,
                                    },
                                )
                            )
        return cls(name=name, jobs=jobs)

    @classmethod
    def for_study(
        cls,
        sites: Sequence[PopulationSite],
        stage: StageKind,
        config: Optional[MFCConfig] = None,
        fleet_spec: Optional[FleetSpec] = None,
        seed: int = 0,
    ) -> "CampaignSpec":
        """The §5 study as a campaign: one stage over a population."""
        return cls.grid(
            name=f"study-{stage.value}-seed{seed}",
            scenarios=sites,
            stages=(stage,),
            seeds=(seed,),
            fleet_spec=fleet_spec,
            variants=(("study", config),),
        )
