"""Campaign execution: a sequential fallback and a batched worker pool.

Every job rebuilds its world from scratch inside ``execute_job`` with
an explicit seed, so a job's result is a pure function of its
:class:`~repro.campaign.spec.JobSpec` — running jobs in parallel, in
any order, batched or not, or resuming from a half-finished store
yields results identical to the sequential loop.

The parent process is the only writer of the result store: workers
return encoded results over the pool's pipe and the parent appends
them as they complete, so an interrupted campaign keeps every job
finished before the kill.

Dispatch granularity is the 100k-world lever: per-task future/IPC
bookkeeping and per-record ``fsync`` dominate once jobs shrink to
milliseconds.  The pool therefore packs several jobs into each worker
task — ``batch=None`` (auto) sizes batches by :func:`estimate_job_cost`
so a batch amortizes the fixed dispatch cost without starving workers,
``batch=B`` fixes the size — and the store commits one fsync'd write
per batch instead of per record.  The commit point is unchanged — a
kill mid-batch loses only the lines not yet fully written, and a
resume re-runs exactly those jobs.

:func:`iter_campaign` is the streaming form: it yields each
:class:`JobOutcome` as it lands (cached hits first, fresh results in
completion order) so population-scale aggregations never hold every
decoded result in memory.  :func:`run_campaign` keeps the historical
contract — a list in campaign order.
"""

from __future__ import annotations

import importlib
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.campaign.codec import (
    SUMMARY,
    DeadLetter,
    decode_result,
    encode_result,
)
from repro.campaign.progress import ProgressReporter
from repro.campaign.spec import CampaignSpec, JobSpec
from repro.campaign.store import ResultStore

#: cost units one auto-sized batch aims for (~ simulated requests); a
#: 100k-micro-world campaign packs hundreds of jobs per task while a
#: grid of full §5 worlds stays at one job per task
TARGET_BATCH_COST = 4_000.0
#: auto batch size clamp — dispatch amortization saturates well before
#: the upper bound, and huge batches would delay commits/progress
MAX_BATCH_SIZE = 256
#: assumed cost of a callable job (unknown work: keep batches small)
FUNC_JOB_COST = TARGET_BATCH_COST
#: planner cost factors relative to the paper's linear ramp: adaptive
#: planners reach the knee in far fewer epochs (PR 5 measured the
#: bisect planner at 1414 vs 3709 requests on the reference world,
#: geometric between the two), so their worlds pack ~3x denser batches
PLANNER_COST_FACTOR = {"linear": 1.0, "geometric": 0.45, "bisect": 0.35}
#: assumed cost of an indicator job: a handful of unloaded sequential
#: requests from one probe node — no crowd at all
INDICATOR_JOB_COST = 15.0
#: stage count assumed when a job does not restrict stages (the
#: default three-stage probe), so single-stage jobs cost a third
DEFAULT_STAGE_COUNT = 3
#: fault plans and hardening add live-target defenses (unresponsive
#: sweeps, check-phase re-runs, injector bookkeeping) on top of the
#: clean ramp — the chaos grid runs ~1.3x the clean wall time
HARDENED_COST_FACTOR = 1.3
#: cohort crowd mode collapses per-member fan-out into O(cohorts)
#: macro-flows; measured 6–20x faster per world depending on crowd
#: size, so cohort jobs pack roughly an order of magnitude denser
COHORT_COST_FACTOR = 0.1


@dataclass
class JobOutcome:
    """One job's result, decoded, plus how it was obtained."""

    job: JobSpec
    result: object
    elapsed_s: float = 0.0
    cached: bool = False

    @property
    def meta(self) -> Dict:
        return self.job.meta

    @property
    def dead(self) -> bool:
        """True when the job exhausted its timeout/retry budget."""
        return isinstance(self.result, DeadLetter)


@dataclass(frozen=True)
class RetryPolicy:
    """Opt-in failure policy for campaign jobs.

    With the default policy (no timeout, no retries) a failing job
    propagates its exception exactly as it always has.  Setting a
    timeout or a retry budget switches the campaign to dead-letter
    mode: a job that exhausts the budget commits a
    :class:`~repro.campaign.codec.DeadLetter` record in place of its
    result and the campaign keeps going.  Timeouts are never retried —
    a deterministic world that hung once will hang again — while
    errors retry up to *retries* times with exponential backoff.
    """

    #: wall-clock budget per attempt (None = unlimited)
    job_timeout_s: Optional[float] = None
    #: extra attempts after a raising (not hanging) first attempt
    retries: int = 0
    #: base backoff before the first retry; doubles per attempt
    retry_backoff_s: float = 0.5

    def __post_init__(self) -> None:
        if self.job_timeout_s is not None and self.job_timeout_s <= 0:
            raise ValueError(f"job_timeout_s must be > 0: {self.job_timeout_s}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0: {self.retries}")
        if self.retry_backoff_s < 0:
            raise ValueError(
                f"retry_backoff_s must be >= 0: {self.retry_backoff_s}"
            )

    @property
    def enabled(self) -> bool:
        return self.job_timeout_s is not None or self.retries > 0


class JobTimeout(RuntimeError):
    """A campaign job exceeded its wall-clock budget."""


@contextmanager
def _watchdog(seconds: Optional[float]):
    """Raise :class:`JobTimeout` in this thread after *seconds*.

    Uses ``SIGALRM``, so it only arms on POSIX and in the main thread
    — which is where both the sequential path and pool workers run
    jobs.  Anywhere else it degrades to a no-op: the job simply runs
    without a wall-clock guard rather than failing to start.
    """
    usable = (
        seconds is not None
        and hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _fire(signum, frame):
        raise JobTimeout(f"job exceeded {seconds:g}s wall clock")

    previous = signal.signal(signal.SIGALRM, _fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _execute_with_policy(
    job: JobSpec, detail: str, policy: RetryPolicy
) -> Tuple[Dict, float]:
    """Run one job under *policy*; returns ``(encoded, elapsed)``.

    Never raises for job failures: a job that exhausts the budget
    returns an encoded :class:`DeadLetter` document, which the parent
    commits and yields like any other result.  ``KeyboardInterrupt``
    and other non-``Exception`` escapes still propagate.
    """
    started = time.monotonic()
    attempts = 0
    while True:
        attempts += 1
        try:
            with _watchdog(policy.job_timeout_s):
                encoded = execute_job(job, detail)
            return encoded, time.monotonic() - started
        except JobTimeout as exc:
            # deterministic worlds hang deterministically: retrying a
            # timeout would just burn another full budget
            elapsed = time.monotonic() - started
            letter = DeadLetter(
                job_id=job.job_id,
                reason="timeout",
                error=repr(exc),
                attempts=attempts,
                elapsed_s=round(elapsed, 3),
            )
            return encode_result(letter), elapsed
        except Exception as exc:  # noqa: BLE001 - converted to DeadLetter
            if attempts > policy.retries:
                elapsed = time.monotonic() - started
                letter = DeadLetter(
                    job_id=job.job_id,
                    reason="error",
                    error=repr(exc),
                    attempts=attempts,
                    elapsed_s=round(elapsed, 3),
                )
                return encode_result(letter), elapsed
            time.sleep(policy.retry_backoff_s * (2 ** (attempts - 1)))


def execute_job(job: JobSpec, detail: str = SUMMARY) -> Dict:
    """Run one job in this process; return the encoded result."""
    if job.func is not None:
        module_name, _, func_name = job.func.partition(":")
        func = getattr(importlib.import_module(module_name), func_name)
        return encode_result(func(**job.kwargs), detail)
    runner = job.world.build()
    return encode_result(runner.run(time_limit_s=job.time_limit_s), detail)


def estimate_job_cost(job: JobSpec) -> float:
    """Rough relative cost of one job, in simulated-request units.

    An MFC world's wall time scales with how many requests its crowd
    ramp issues: roughly ``fleet size × crowd cap``, scaled by how many
    stages run and by the epoch planner (an adaptive ramp reaches the
    knee in ~3x fewer epochs than the linear one, so those worlds pack
    denser batches).  Hardened worlds (``WorldSpec.hardened``) add
    defensive overhead (``HARDENED_COST_FACTOR``); cohort crowd mode
    replaces per-member fan-out with O(cohorts) macro-flows
    (``COHORT_COST_FACTOR``).
    Indicator worlds cost a flat handful of requests.
    The estimate only steers batch sizing — it need not be accurate,
    just monotone enough that micro-worlds batch by the hundred while
    full-size study worlds keep one-job batches.
    """
    if job.func is not None:
        return FUNC_JOB_COST
    world = job.world
    if world.indicator:
        return INDICATOR_JOB_COST
    stage_factor = (
        len(world.stages) / DEFAULT_STAGE_COUNT if world.stages else 1.0
    )
    planner_name = world.planner.name if world.planner is not None else "linear"
    planner_factor = PLANNER_COST_FACTOR.get(planner_name, 1.0)
    mode_factor = COHORT_COST_FACTOR if world.crowd_mode == "cohort" else 1.0
    fault_factor = HARDENED_COST_FACTOR if world.hardened else 1.0
    return float(
        max(
            world.fleet.n_clients
            * world.config.max_crowd
            * stage_factor
            * planner_factor
            * mode_factor
            * fault_factor,
            1,
        )
    )


def auto_batch_size(jobs: Sequence[JobSpec], workers: int) -> int:
    """Jobs per worker task for *jobs* spread over *workers* processes.

    Packs ``TARGET_BATCH_COST`` estimated units per task, clamped to
    ``[1, MAX_BATCH_SIZE]`` and further capped so every worker sees at
    least a few tasks (load balancing beats amortization once batches
    get that large).
    """
    if not jobs:
        return 1
    mean_cost = sum(estimate_job_cost(job) for job in jobs) / len(jobs)
    size = int(TARGET_BATCH_COST / max(mean_cost, 1.0))
    balance_cap = max(1, len(jobs) // (max(workers, 1) * 4))
    return max(1, min(size, MAX_BATCH_SIZE, balance_cap))


def _run_job(
    job: JobSpec, detail: str, policy: Optional[RetryPolicy]
) -> Tuple[Dict, float]:
    """Run one job: ``(encoded result, elapsed)``.

    Under an enabled *policy* a failing job returns a dead letter;
    otherwise its exception propagates.
    """
    if policy is not None and policy.enabled:
        return _execute_with_policy(job, detail, policy)
    started = time.monotonic()
    encoded = execute_job(job, detail)
    return encoded, time.monotonic() - started


def _pool_worker_batch(
    jobs: List[JobSpec], detail: str, policy: Optional[RetryPolicy] = None
) -> Tuple[List[Tuple[str, Dict, float]], Optional[BaseException]]:
    """Batched pool entry point: finished results + the first error.

    A job failure does not discard the batch's earlier results — they
    travel back with the error so the parent commits them before the
    failure propagates, keeping resume granularity per-job even under
    batched dispatch.  Under an enabled :class:`RetryPolicy` a failing
    job lands as a dead-letter result instead, so the batch (and the
    campaign) always runs to completion.
    """
    results: List[Tuple[str, Dict, float]] = []
    for job in jobs:
        try:
            encoded, elapsed = _run_job(job, detail, policy)
        except BaseException as exc:  # noqa: BLE001 - re-raised by parent
            return results, exc
        results.append((job.key, encoded, elapsed))
    return results, None


def _record(job: JobSpec, encoded: Dict, detail: str, elapsed_s: float) -> Dict:
    return {
        "key": job.key,
        "job_id": job.job_id,
        "meta": job.meta,
        "detail": detail,
        "elapsed_s": round(elapsed_s, 3),
        "result": encoded,
    }


def _outcome(job: JobSpec, record: Dict, cached: bool) -> JobOutcome:
    return JobOutcome(
        job=job,
        result=decode_result(record["result"]),
        elapsed_s=record.get("elapsed_s", 0.0),
        cached=cached,
    )


def iter_campaign(
    spec: Union[CampaignSpec, Sequence[JobSpec]],
    jobs: Optional[int] = None,
    store: Optional[Union[ResultStore, str, Path]] = None,
    detail: str = SUMMARY,
    progress: Union[bool, ProgressReporter] = False,
    batch: Optional[int] = None,
    job_timeout_s: Optional[float] = None,
    retries: int = 0,
    retry_backoff_s: float = 0.5,
) -> Iterator[JobOutcome]:
    """Run every job of *spec*, yielding outcomes as they land.

    The streaming counterpart of :func:`run_campaign`: cached jobs are
    yielded up front, fresh jobs as their results commit (completion
    order under a pool, campaign order sequentially), and jobs sharing
    a key yield right after the one execution that serves them.  Every
    job of the campaign yields exactly one outcome; the order across
    the whole run is unspecified, so aggregations should key on
    ``outcome.meta``.  Nothing holds more than one decoded result at a
    time on the consumer's behalf — this is the ≥100k-job path.

    *batch* sets how many jobs ride in one worker task (default: auto
    by estimated job cost; byte-identical results at any size).

    *job_timeout_s* / *retries* / *retry_backoff_s* enable dead-letter
    mode (see :class:`RetryPolicy`): a hung or repeatedly failing job
    lands as a :class:`~repro.campaign.codec.DeadLetter` outcome and
    the campaign completes instead of hanging or aborting.  With the
    defaults the historical contract holds: failures raise.
    """
    if isinstance(spec, CampaignSpec):
        job_list = spec.expand()
        label = spec.name
    else:
        job_list = list(spec)
        label = "campaign"
    if not isinstance(store, ResultStore):
        store = ResultStore(store)
    if batch is not None and batch < 1:
        raise ValueError(f"batch must be >= 1: {batch}")
    policy = RetryPolicy(
        job_timeout_s=job_timeout_s,
        retries=retries,
        retry_backoff_s=retry_backoff_s,
    )

    fresh: List[JobSpec] = []  # first job per not-yet-stored key
    #: jobs whose key some earlier fresh job computes (yield on land)
    deferred: Dict[str, List[JobSpec]] = {}
    cached: List[JobSpec] = []
    seen_keys = set()
    for job in job_list:
        if job.key in seen_keys:
            deferred.setdefault(job.key, []).append(job)
        elif store.get(job.key, detail) is not None:
            cached.append(job)
        else:
            seen_keys.add(job.key)
            fresh.append(job)

    reporter: Optional[ProgressReporter]
    if isinstance(progress, ProgressReporter):
        reporter = progress
    elif progress:
        reporter = ProgressReporter(total=len(job_list), label=label)
    else:
        reporter = None
    if reporter is not None:
        reporter.start(cached=len(job_list) - len(fresh))

    for job in cached:
        yield _outcome(job, store.get(job.key, detail), cached=True)

    def land(job: JobSpec) -> Iterator[JobOutcome]:
        record = store.get(job.key, detail)
        if record is None:  # pragma: no cover - defensive
            raise RuntimeError(f"job {job.job_id!r} finished without a record")
        yield _outcome(job, record, cached=False)
        for twin in deferred.pop(job.key, ()):
            yield _outcome(twin, record, cached=True)

    if jobs is not None and jobs > 1 and len(fresh) > 1:
        for done_job in _run_pool(
            fresh, jobs, store, detail, reporter, batch, policy
        ):
            yield from land(done_job)
    else:
        for job in fresh:
            encoded, elapsed = _run_job(job, detail, policy)
            store.append(_record(job, encoded, detail, elapsed))
            if reporter is not None:
                reporter.job_done()
            yield from land(job)
    if reporter is not None:
        reporter.finish()

    for twins in deferred.values():  # pragma: no cover - defensive
        # every fresh key lands (or the pool raised before this line),
        # so a leftover twin means the executor lost a job
        for twin in twins:
            raise RuntimeError(f"job {twin.job_id!r} finished without a record")


def run_campaign(
    spec: Union[CampaignSpec, Sequence[JobSpec]],
    jobs: Optional[int] = None,
    store: Optional[Union[ResultStore, str, Path]] = None,
    detail: str = SUMMARY,
    progress: Union[bool, ProgressReporter] = False,
    batch: Optional[int] = None,
    job_timeout_s: Optional[float] = None,
    retries: int = 0,
    retry_backoff_s: float = 0.5,
) -> List[JobOutcome]:
    """Run every job of *spec*; return outcomes in campaign order.

    *jobs* > 1 fans pending work over a ``ProcessPoolExecutor``;
    ``None``/1 runs the sequential fallback in this process — the two
    paths produce identical results because every job world is
    deterministic in its spec.  *store* (a :class:`ResultStore` or a
    shard-directory path) makes the campaign resumable: jobs whose key
    is already stored are returned from cache without recomputation.
    Jobs sharing a key (identical
    parameters) execute once.  *batch* controls pool dispatch
    granularity (see :func:`iter_campaign`).

    This materializes every outcome — fine for grids up to a few
    thousand jobs; population-scale runs should consume
    :func:`iter_campaign` instead.
    """
    if isinstance(spec, CampaignSpec):
        job_list = spec.expand()
    else:
        job_list = list(spec)
    by_id = {
        id(job): index for index, job in enumerate(job_list)
    }
    outcomes: List[Optional[JobOutcome]] = [None] * len(job_list)
    for outcome in iter_campaign(
        job_list if not isinstance(spec, CampaignSpec) else spec,
        jobs=jobs,
        store=store,
        detail=detail,
        progress=progress,
        batch=batch,
        job_timeout_s=job_timeout_s,
        retries=retries,
        retry_backoff_s=retry_backoff_s,
    ):
        outcomes[by_id[id(outcome.job)]] = outcome
    missing = [job_list[i].job_id for i, o in enumerate(outcomes) if o is None]
    if missing:  # pragma: no cover - defensive
        raise RuntimeError(f"jobs finished without a record: {missing[:3]}")
    return outcomes  # type: ignore[return-value]


def _chunk(jobs: List[JobSpec], size: int) -> List[List[JobSpec]]:
    return [jobs[i : i + size] for i in range(0, len(jobs), size)]


def _run_pool(
    pending: List[JobSpec],
    max_workers: int,
    store: ResultStore,
    detail: str,
    reporter: Optional[ProgressReporter],
    batch: Optional[int],
    policy: RetryPolicy,
) -> Iterator[JobSpec]:
    """Fan *pending* over worker processes, committing as results land.

    Yields each job right after its record is committed, so callers
    stream outcomes without waiting for the pool to drain.  On a job
    failure the queued-but-unstarted tasks are cancelled, but every
    job that completes — including the finished prefix of the failing
    batch and in-flight tasks the pool must wait out — is still
    committed to the store before the failure propagates, so a resume
    after the fix re-runs only what never finished.
    """
    by_key = {job.key: job for job in pending}
    workers = min(max_workers, len(pending))
    if batch is None:
        batch = auto_batch_size(pending, workers)
    batches = _chunk(pending, batch)
    first_error: Optional[BaseException] = None
    with ProcessPoolExecutor(max_workers=min(workers, len(batches))) as pool:
        futures = {
            pool.submit(_pool_worker_batch, chunk, detail, policy)
            for chunk in batches
        }
        while futures:
            done, futures = wait(futures, return_when=FIRST_COMPLETED)
            for future in done:
                try:
                    results, error = future.result()
                except BaseException as exc:  # noqa: BLE001
                    results, error = [], exc
                if results:
                    store.append_batch(
                        [
                            _record(by_key[key], encoded, detail, elapsed)
                            for key, encoded, elapsed in results
                        ]
                    )
                    if reporter is not None:
                        reporter.job_done(len(results))
                if error is not None and first_error is None:
                    first_error = error
                    for queued in futures:
                        queued.cancel()
                for key, _, _ in results:
                    yield by_key[key]
    if first_error is not None:
        raise first_error
