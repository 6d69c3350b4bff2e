"""Declarative experiment campaigns.

A *campaign* is a list of independent MFC jobs — for the §5 study, one
world per population site (:meth:`CampaignSpec.for_study`) — held as
:class:`JobSpec` entries whose order and seeding are deterministic.
Each job carries everything a worker process needs to rebuild its
world from scratch, plus a
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
from repro.core.stages import StageKind
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

    @classmethod
    def for_study(
        cls,
        sites: Sequence[PopulationSite],
        stage: StageKind,
        config: Optional[MFCConfig] = None,
        fleet_spec: Optional[FleetSpec] = None,
        seed: int = 0,
    ) -> "CampaignSpec":
        """The §5 study as a campaign: one stage over a population.

        Each site's world seed is ``seed * SEED_STRIDE + site_index``,
        exactly the historical study seeding.
        """
        config = config if config is not None else MFCConfig()
        fleet_spec = fleet_spec if fleet_spec is not None else FleetSpec()
        jobs = [
            JobSpec.from_world(
                f"{sid}|{stage.value}|study|seed{seed}",
                WorldSpec(
                    scenario=scenario,
                    fleet=fleet_spec,
                    config=config,
                    seed=derive_site_seed(seed, index),
                    stages=(stage.value,),
                ),
                meta={
                    "scenario_id": sid,
                    "stage": stage.value,
                    "variant": "study",
                    "planner": "default",
                    "base_seed": seed,
                    "index": index,
                    **extra,
                },
            )
            for index, (sid, scenario, extra) in enumerate(_normalize_scenarios(sites))
        ]
        return cls(name=f"study-{stage.value}-seed{seed}", jobs=jobs)
