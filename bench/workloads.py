"""The four benchmark workloads: inputs from a seed, one round of work.

A run is a sequence of *rounds*.  Round ``r`` of seed ``s`` is a fixed
input set drawn from ``(s, r)`` alone, so the same seed always
reproduces the same worlds.  Every round of a sequential workload holds
one world per registry scenario, so every round carries the same
scenario mix.

The program under test receives ready-made ``WorldSpec``s (sequential
workloads) or a generated site list (``survey-triage``); everything
random about the inputs is drawn here, from the seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign import executor
from repro.campaign.codec import decode_result, encode_result
from repro.campaign.store import ResultStore
from repro.campaign.triage import iter_triage
from repro.core.config import MFCConfig
from repro.workload.fleet import FleetSpec
from repro.workload.populations import generate_population, quantcast_strata
from repro.worlds.registry import FAULT_PRESETS, SCENARIO_PRESETS
from repro.worlds.spec import WorldSpec

SCENARIOS = tuple(sorted(SCENARIO_PRESETS))
FAULTS = tuple(sorted(FAULT_PRESETS))
#: scenarios a ``--smoke`` round keeps (the two cheapest worlds)
SMOKE_SCENARIOS = ("budget-vps", "univ1")


def derive_seed(*parts) -> int:
    """A 31-bit seed that depends only on *parts* (stable across runs)."""
    digest = hashlib.sha256(repr(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def no_slowdown() -> float:
    """Timing without calibration (traced runs report raw seconds)."""
    return 1.0


def round_digest(verdicts: Sequence[str]) -> str:
    """Order-independent digest of one round's verdict lines."""
    blob = "\n".join(sorted(verdicts)).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclasses.dataclass
class RoundResult:
    """What one round did, as the benchmark measures and checks it."""

    items: int = 0
    failed: int = 0
    errors: List[str] = dataclasses.field(default_factory=list)
    verdicts: List[str] = dataclasses.field(default_factory=list)
    #: per-world seconds (build + run, or the executor's job time),
    #: divided by the slowdown measured around them
    world_s: List[float] = dataclasses.field(default_factory=list)
    #: MFC requests fired at targets
    requests: int = 0
    #: seconds of the timed section, divided the same way
    wall_s: float = 0.0
    #: the slowdown readings taken during the round
    slowdowns: List[float] = dataclasses.field(default_factory=list)
    #: full-detail ``encode_result`` documents (sequential workloads)
    #: or stored records (survey), for the informational fingerprint
    documents: List[Dict] = dataclasses.field(default_factory=list)
    #: survey only: phase timings and triage outcome counts
    survey: Dict[str, float] = dataclasses.field(default_factory=dict)

    def fail(self, item: str, why: str, count: int = 1) -> None:
        self.failed += count
        self.errors.append(f"{item}: {why}")


# -- sequential workloads -------------------------------------------------------


def verdict_line(item: str, seed: int, result) -> str:
    stages = ",".join(f"{name}={st.describe()}" for name, st in result.stages.items())
    return f"{item}|seed={seed}|{stages}|requests={result.total_requests}"


def world_problem(planned: List[str], result) -> Optional[str]:
    """Why a finished world's result is malformed, or None."""
    if result.aborted:
        return f"experiment aborted: {result.abort_reason}"
    if list(result.stages) != planned:
        return f"stages {list(result.stages)} != planned {planned}"
    total = sum(st.total_requests for st in result.stages.values())
    if result.total_requests != total or total <= 0:
        return f"total_requests {result.total_requests} != stage sum {total}"
    return None


@dataclasses.dataclass(frozen=True)
class SequentialWorkload:
    """One world per scenario per round, built and run back to back."""

    #: processes that run worlds at once
    processes = 1

    name: str
    #: nominal seconds of one round on the reference machine (2 cores)
    round_s: float
    n_clients: int
    max_crowd: int
    crowd_step: int
    min_clients: int
    crowd_mode: Optional[str] = None
    stages: Optional[Tuple[str, ...]] = None
    #: attach one rotating ``FAULT_PRESETS`` plan per world
    faulted: bool = False
    smoke: bool = False

    def inputs(self, seed: int, round_index: int) -> List[Tuple[str, WorldSpec]]:
        scenarios = SMOKE_SCENARIOS if self.smoke else SCENARIOS
        config = MFCConfig(
            max_crowd=self.max_crowd,
            crowd_step=self.crowd_step,
            initial_crowd=self.crowd_step,
            min_clients=self.min_clients,
        )
        worlds = []
        for scenario in scenarios:
            item = scenario
            faults = None
            if self.faulted:
                # consecutive rounds step the rotation by two presets, so
                # a four-round run pairs every scenario with every other
                # preset and runs stay comparable across seeds
                shift = seed + 2 * round_index
                preset = FAULTS[(SCENARIOS.index(scenario) + shift) % len(FAULTS)]
                item = f"{scenario}+{preset}"
                faults = FAULT_PRESETS[preset]()
            worlds.append(
                (
                    item,
                    WorldSpec(
                        scenario=SCENARIO_PRESETS[scenario](),
                        fleet=FleetSpec(n_clients=self.n_clients),
                        config=config,
                        seed=derive_seed(self.name, seed, round_index, scenario),
                        stages=self.stages,
                        faults=faults,
                        crowd_mode=self.crowd_mode,
                    ),
                )
            )
        return worlds

    def run(
        self,
        worlds,
        scratch: Path,
        keep_documents: bool = False,
        slowdown=no_slowdown,
        section=contextlib.nullcontext,
    ) -> RoundResult:
        out = RoundResult(slowdowns=[slowdown()])
        finished = []
        with section():
            for item, spec in worlds:
                started = time.perf_counter()
                try:
                    runner = spec.build()
                    result = runner.run()
                except Exception as exc:  # noqa: BLE001 - a failed world is a measured outcome
                    result = None
                    out.items += 1
                    out.fail(item, f"raised {exc!r}")
                seconds = time.perf_counter() - started
                out.slowdowns.append(slowdown())
                if result is not None:
                    # the machine's speed while the world ran: the mean of
                    # the readings just before and just after it
                    out.world_s.append(seconds * 2 / (out.slowdowns[-2] + out.slowdowns[-1]))
                    finished.append((item, spec.seed, [s.name for s in runner.stages], result))
        out.wall_s = sum(out.world_s)

        for item, seed, planned, result in finished:
            out.items += 1
            out.requests += result.total_requests
            line = verdict_line(item, seed, result)
            out.verdicts.append(line)
            problem = world_problem(planned, result)
            if problem is None:
                decoded = decode_result(encode_result(result))
                if verdict_line(item, seed, decoded) != line:
                    problem = "verdict changed through the campaign codec"
            if problem is not None:
                out.fail(item, problem)
            if keep_documents:
                out.documents.append(encode_result(result, detail="full"))
        return out


# -- survey workload ---------------------------------------------------------------


def triage_verdict(record) -> str:
    stops = sorted(
        (name, stop) for name, stop in (record.active_stops or {}).items() if stop is not None
    )
    return f"{record.site_id}|{record.label}|{stops}"


class JobTimes:
    """The executor's per-job wall times, read before the store rounds them.

    The executor times every job and rounds the figure to milliseconds
    when it builds the store record; indicator jobs take a few
    milliseconds, so the unrounded value is taken from the argument of
    the executor's ``_record`` instead.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        record = executor._record

        def timed_record(job, encoded, detail, elapsed_s):
            self.samples.append(elapsed_s)
            return record(job, encoded, detail, elapsed_s)

        executor._record = timed_record


def store_lines(path: Path) -> int:
    return ResultStore(path).fsck()["totals"]["lines"]


@dataclasses.dataclass
class SurveyWorkload:
    """Two-phase triage over a generated population, then a resume pass."""

    name: str
    #: nominal seconds of one round on the reference machine (2 cores)
    round_s: float
    scale: float
    n_clients: int = 60
    max_crowd: int = 50
    smoke: bool = False
    job_times: Optional[JobTimes] = None

    @property
    def processes(self) -> int:
        """Two pool workers, never more than the machine has cores."""
        return min(2, os.cpu_count() or 1)

    def inputs(self, seed: int, round_index: int):
        scale = 0.05 if self.smoke else self.scale
        sites = generate_population(
            quantcast_strata(scale), seed=derive_seed(self.name, seed, round_index, "population")
        )
        return sites, derive_seed(self.name, seed, round_index, "worlds")

    def run(
        self,
        inputs,
        scratch: Path,
        keep_documents: bool = False,
        slowdown=no_slowdown,
        section=contextlib.nullcontext,
    ) -> RoundResult:
        if self.job_times is None:
            self.job_times = JobTimes()
        sites, world_seed = inputs
        config = MFCConfig(max_crowd=self.max_crowd, min_clients=min(50, int(self.n_clients * 0.75)))
        kwargs = dict(
            config=config,
            fleet_spec=FleetSpec(n_clients=self.n_clients),
            seed=world_seed,
            jobs=self.processes,
        )
        store = scratch / f"store-{time.monotonic_ns()}.d"
        out = RoundResult(slowdowns=[slowdown()])
        samples = self.job_times.samples
        del samples[:]

        with section():
            started = time.perf_counter()
            records = list(iter_triage(sites, store=store, **kwargs))
            fresh_s = time.perf_counter() - started
        jobs_run = len(samples)
        job_s = sum(samples)
        lines = store_lines(store)
        out.slowdowns.append(slowdown())

        with section():
            started = time.perf_counter()
            resumed = list(iter_triage(sites, store=store, **kwargs))
            resume_s = time.perf_counter() - started
        out.slowdowns.append(slowdown())
        # each pass at the machine speed read around it
        fresh_slowdown = (out.slowdowns[0] + out.slowdowns[1]) / 2
        out.world_s = [s / fresh_slowdown for s in samples]
        out.wall_s = fresh_s / fresh_slowdown + resume_s * 2 / (out.slowdowns[1] + out.slowdowns[2])

        out.items = len(sites)
        out.verdicts = [triage_verdict(r) for r in records]
        out.requests = sum(r.total_requests for r in records)
        expected_ids = sorted(site.site_id for site in sites)
        if sorted(r.site_id for r in records) != expected_ids:
            out.fail("population", "records do not cover every site once", len(sites))
        for record in records:
            if record.label == "dead-letter":
                out.fail(record.site_id, "dead-lettered")
            elif record.probed and set(record.active_outcomes) != set(record.probe_stages):
                out.fail(record.site_id, "active outcomes do not match the probe plan")
        if sorted(triage_verdict(r) for r in resumed) != sorted(out.verdicts):
            out.fail("resume", "resumed verdicts differ from the fresh pass", len(sites))
        recomputed = store_lines(store) - lines
        if recomputed:
            out.fail("resume", f"resume recomputed {recomputed} jobs", len(sites))

        probed = [r for r in records if r.probed]
        probes = sum(len(r.active_stops) for r in probed)
        out.survey = {
            "probed": len(probed),
            "probes": probes,
            "probe_stops": sum(
                1 for r in probed for stop in r.active_stops.values() if stop is not None
            ),
            "jobs": jobs_run,
            "job_s": job_s,
            "fresh_s": fresh_s,
            "resume_s": resume_s,
            "workers": self.processes,
            "resume_hits": jobs_run - recomputed,
        }
        if keep_documents:
            out.documents = sorted(
                (rec["key"], rec["result"]) for rec in ResultStore(store).records()
            )
        return out


def make(name: str, smoke: bool = False):
    """The workload called *name* (``--smoke``: about 1/20 of its inputs)."""
    if name == "site-exact":
        # the default `repro run` world: 65-client PlanetLab fleet,
        # crowds of 5..55 in steps of 5, Base/SmallQuery/LargeObject
        return SequentialWorkload(
            name, 4.2, n_clients=65, max_crowd=55, crowd_step=5, min_clients=48, smoke=smoke
        )
    if name == "crowd-cohort":
        return SequentialWorkload(
            name,
            6.4,
            n_clients=600,
            max_crowd=600,
            crowd_step=60,
            min_clients=50,
            crowd_mode="cohort",
            smoke=smoke,
        )
    if name == "site-faulted-write":
        return SequentialWorkload(
            name,
            5.0,
            n_clients=80,
            max_crowd=60,
            crowd_step=10,
            min_clients=50,
            stages=("Upload", "ConnChurn", "CacheBust"),
            faulted=True,
            smoke=smoke,
        )
    if name == "survey-triage":
        return SurveyWorkload(name, 4.4, scale=0.5, smoke=smoke)
    raise KeyError(name)
