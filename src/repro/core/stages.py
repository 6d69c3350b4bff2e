"""Probe stages: a declarative spec + registry (paper §2.2.2, extended).

The paper's MFC is three fixed probe categories; this module turns the
category list into a *registry* of declarative :class:`ProbeStage`
specs.  Each spec is a pure-data request recipe — HTTP method, request
body size, object-assignment policy, degradation quantile — plus the
server sub-system the stage targets (what
:mod:`repro.core.inference` reports a verdict about).  ``plan(profile)``
turns a spec into a runnable :class:`StagePlan` against one site's
content profile, or ``None`` when the site hosts nothing the recipe
needs.

The three paper stages are registered first, byte-identical to the
seed implementation:

- **Base** — HEAD for the base page: "an estimate of basic HTTP
  request processing time at the server".  Median rule.
- **Small Query** — "each client makes a request for a unique
  dynamically generated object if available; else all clients request
  the same dynamic object"; responses < 15 KB keep the network quiet
  while the back end works.  Median rule.
- **Large Object** — every client requests *the same* object
  ≥ 100 KB: TCP exits slow start, the access link saturates, and
  server-side caching keeps storage out of the picture.  Because
  shared mid-path bottlenecks can masquerade as server congestion,
  this stage requires **90% of clients** over θ (§2.2.3).

Three further stages open workloads the paper never probed:

- **Upload** — POST bodies through a dynamic endpoint: the write path
  (body receive + backend + storage journal) holds workers and the
  disk, invisible to every GET-shaped stage.
- **ConnChurn** — several sequential no-keepalive connections per
  commanded request: pure accept/handshake pressure on the listen
  queue and worker pool with near-zero payload.
- **CacheBust** — the Large Object recipe with a per-client
  cache-busting suffix: every request misses the server's object
  cache and hits the disk, separating storage from bandwidth.

``standard_stages`` still returns exactly the paper's sequence;
``stages_named`` builds any registered subset, which is what
``WorldSpec.stages`` and ``repro run --stage`` feed through.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.content.classifier import ContentProfile
from repro.server.http import CACHE_BUST_MARKER, Method

#: object-assignment policies (the paper's ``O_{i,k}`` choices)
SHARED = "shared"            #: every client requests object_paths[0]
ROUND_ROBIN = "round-robin"  #: unique while the pool lasts, then wrap
UNIQUE = "unique"            #: strictly unique; error when the pool is short
CACHE_BUST = "cache-bust"    #: object_paths[0] + a per-client bust suffix

_ASSIGNMENTS = (SHARED, ROUND_ROBIN, UNIQUE, CACHE_BUST)

#: candidate-object sources a recipe may draw from
_SOURCES = ("base-page", "small-queries", "large-objects")


class StageKind(enum.Enum):
    """The paper's three probe categories.

    Each value names the registry entry of the same stage; inference
    and the §5 study use the enum to refer to the paper's stages.  New
    stages exist only as registry names.
    """

    BASE = "Base"
    SMALL_QUERY = "SmallQuery"
    LARGE_OBJECT = "LargeObject"


@dataclass(frozen=True)
class StagePlan:
    """A runnable stage: request recipe + degradation rule."""

    name: str
    method: Method
    #: fraction of clients that must exceed θ (0.5 = median rule)
    degradation_quantile: float
    #: object paths available to this stage; assignment below
    object_paths: tuple
    #: one of SHARED / ROUND_ROBIN / UNIQUE / CACHE_BUST
    assignment: str = SHARED
    #: request body size (POST stages); 0 for body-less methods
    body_bytes: float = 0.0
    #: sequential no-keepalive connections per commanded request
    connections: int = 1

    def object_for(self, client_index: int) -> str:
        """The paper's ``O_{i,k}`` assignment.

        Shared stages give every client the same path; round-robin
        hands out unique paths while the pool has them and then wraps
        (the paper's Small Query fallback).  Strictly-unique stages
        refuse to wrap: silently reusing a path would break the
        recipe's premise, so a short pool is a loud error.
        """
        if not self.object_paths:
            raise ValueError(f"stage {self.name} has no objects")
        if self.assignment == UNIQUE:
            if client_index >= len(self.object_paths):
                # every live client gets an assignment (the coordinator
                # base-measures the whole fleet), so the pool must
                # cover the fleet, not just the crowd
                raise ValueError(
                    f"stage {self.name} requires a unique object per "
                    f"client but has only {len(self.object_paths)} "
                    f"path(s) for client index {client_index}; the "
                    "pool must cover every live client — shrink the "
                    "fleet or use the round-robin assignment"
                )
            return self.object_paths[client_index]
        if self.assignment == CACHE_BUST:
            return f"{self.object_paths[0]}{CACHE_BUST_MARKER}{client_index}"
        if self.assignment == SHARED:
            return self.object_paths[0]
        return self.object_paths[client_index % len(self.object_paths)]


@dataclass(frozen=True)
class ProbeStage:
    """Declarative description of one probe category.

    Everything a stage *is* lives here as plain data: the request
    recipe (method, body, object source and assignment policy), the
    degradation quantile of its stopping rule, and the server
    sub-system the stage targets.  ``plan(profile)`` resolves the
    recipe against one site's content profile.
    """

    name: str
    #: targeted server sub-system, reported by constraint inference
    resource: str
    method: Method
    #: fraction of clients that must exceed θ (0.5 = median rule)
    degradation_quantile: float
    #: candidate objects: "base-page" | "small-queries" | "large-objects"
    source: str
    assignment: str = SHARED
    body_bytes: float = 0.0
    connections: int = 1
    #: one-line description for ``repro stages``
    description: str = ""

    def __post_init__(self) -> None:
        if self.source not in _SOURCES:
            raise ValueError(
                f"stage {self.name}: unknown object source {self.source!r}; "
                f"expected one of {_SOURCES}"
            )
        if self.assignment not in _ASSIGNMENTS:
            raise ValueError(
                f"stage {self.name}: unknown assignment {self.assignment!r}; "
                f"expected one of {_ASSIGNMENTS}"
            )
        if not 0 < self.degradation_quantile <= 1:
            raise ValueError(
                f"stage {self.name}: degradation_quantile must be in (0, 1]"
            )
        if self.body_bytes < 0:
            raise ValueError(f"stage {self.name}: body_bytes cannot be negative")
        if self.connections < 1:
            raise ValueError(f"stage {self.name}: connections must be >= 1")

    # -- recipe resolution -----------------------------------------------------

    def candidate_paths(self, profile: ContentProfile) -> tuple:
        """The profile's candidate objects for this recipe's source."""
        if self.source == "base-page":
            return (profile.base_page,)
        if self.source == "small-queries":
            return tuple(o.path for o in profile.small_queries)
        return tuple(o.path for o in profile.large_objects)

    def eligible(self, profile: ContentProfile) -> bool:
        """True when the site hosts what this recipe needs."""
        return bool(self.candidate_paths(profile))

    def plan(self, profile: ContentProfile) -> Optional[StagePlan]:
        """Resolve the recipe against *profile*; None if ineligible."""
        paths = self.candidate_paths(profile)
        if not paths:
            return None
        if self.assignment in (SHARED, CACHE_BUST):
            # one shared (or shared-base) object: the pool's best
            # candidate — profiles sort large objects largest-first,
            # small queries cheapest-first
            paths = paths[:1]
        return StagePlan(
            name=self.name,
            method=self.method,
            degradation_quantile=self.degradation_quantile,
            object_paths=paths,
            assignment=self.assignment,
            body_bytes=self.body_bytes,
            connections=self.connections,
        )


# -- registry ------------------------------------------------------------------

#: registered probe stages, in registration order
STAGES: Dict[str, ProbeStage] = {}


def register_stage(stage: ProbeStage) -> ProbeStage:
    """Register *stage* under its name; returns it (decorator-friendly)."""
    if stage.name in STAGES:
        raise ValueError(f"probe stage {stage.name!r} already registered")
    STAGES[stage.name] = stage
    return stage


def stage_named(name: str) -> ProbeStage:
    """Look up a registered stage; ValueError lists what exists."""
    stage = STAGES.get(name)
    if stage is None:
        raise ValueError(
            f"unknown probe stage {name!r}; registered: {sorted(STAGES)}"
        )
    return stage


#: the paper's sequence — what a default world runs
DEFAULT_STAGE_NAMES = (
    StageKind.BASE.value,
    StageKind.SMALL_QUERY.value,
    StageKind.LARGE_OBJECT.value,
)


register_stage(
    ProbeStage(
        name=StageKind.BASE.value,
        resource="http request handling",
        method=Method.HEAD,
        degradation_quantile=0.5,
        source="base-page",
        assignment=SHARED,
        description="HEAD for the base page: raw request-processing time",
    )
)

register_stage(
    ProbeStage(
        name=StageKind.SMALL_QUERY.value,
        resource="back-end data processing",
        method=Method.GET,
        degradation_quantile=0.5,
        source="small-queries",
        assignment=ROUND_ROBIN,
        description="unique dynamic <15 KB responses: back-end work, quiet network",
    )
)

register_stage(
    ProbeStage(
        name=StageKind.LARGE_OBJECT.value,
        resource="network access bandwidth",
        method=Method.GET,
        degradation_quantile=0.9,
        source="large-objects",
        assignment=SHARED,
        description="one shared >=100 KB object: saturates the access link",
    )
)

register_stage(
    ProbeStage(
        name="Upload",
        resource="back-end write path",
        method=Method.POST,
        degradation_quantile=0.5,
        source="small-queries",
        assignment=SHARED,
        body_bytes=64 * 1024.0,
        description="64 KB POST bodies through a dynamic endpoint: the write path",
    )
)

register_stage(
    ProbeStage(
        name="ConnChurn",
        resource="connection handling (accept/FD)",
        method=Method.HEAD,
        degradation_quantile=0.5,
        source="base-page",
        assignment=SHARED,
        connections=4,
        description="4 sequential no-keepalive connections: accept/FD pressure",
    )
)

register_stage(
    ProbeStage(
        name="CacheBust",
        resource="storage (disk) subsystem",
        method=Method.GET,
        degradation_quantile=0.9,
        source="large-objects",
        assignment=CACHE_BUST,
        description="per-client unique large objects: defeat the cache, hit disk",
    )
)


# -- stage-sequence construction -----------------------------------------------


def standard_stages(profile: ContentProfile) -> List[StagePlan]:
    """The paper's stage sequence, skipping ineligible ones."""
    return stages_named(DEFAULT_STAGE_NAMES, profile)


def stages_named(
    names: Iterable[str], profile: ContentProfile
) -> List[StagePlan]:
    """Resolve registered stages against *profile*, in the given order.

    Ineligible stages are skipped, exactly as ``standard_stages``
    skips a Large Object stage on a site with no >=100 KB object.
    Unknown names raise.
    """
    plans: List[StagePlan] = []
    for name in names:
        plan = stage_named(name).plan(profile)
        if plan is not None:
            plans.append(plan)
    return plans


def validate_stage_names(names: Sequence[str]) -> None:
    """Raise early (spec validation time) on unknown stage names."""
    for name in names:
        stage_named(name)
