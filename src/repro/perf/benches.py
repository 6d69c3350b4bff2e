"""Substrate microbenchmarks and the end-to-end world benchmark.

Three layers, three benches:

- **kernel** — raw timer throughput (`bench_kernel_timers`) and a
  cascade of self-rescheduling timers (`bench_kernel_cascade`), the two
  shapes the fluid network and the coordinator put on the heap;
- **allocator** — `bench_allocator` measures the max-min recompute cost
  as a function of concurrent flow count in a topology with many
  *registered but idle* access links, which is exactly the shape an
  MFC world has (every fleet client owns an access link, only the
  current crowd's links are active); `bench_allocator_sync_crowd`
  launches whole crowds at single simulated instants through the
  batch API and reports how many allocator passes the end-of-instant
  transaction folded away (`coalescing_factor`);
- **world** — `bench_world` runs a complete Large Object experiment
  (fleet, coordinator, epochs) and is the acceptance benchmark: its
  wall-clock time is what future perf PRs are judged against, and its
  result fingerprint is the determinism guard.

All benches measure wall-clock with ``time.perf_counter`` and report
best-of-``repeats`` so background noise biases the numbers up, never
down.  Everything inside a bench is seeded and deterministic — two
runs do identical simulated work, only the wall clock differs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from typing import Callable, Dict, List, Optional

#: a registered bench: zero-arg, returns the bench record
BenchFactory = Callable[[], Dict]

from repro.core.config import MFCConfig
from repro.core.epochs import PlannerSpec
from repro.core.stages import StageKind
from repro.server import presets
from repro.sim.kernel import Simulator
from repro.workload.fleet import FleetSpec, lan_fleet
from repro.worlds.spec import WorldSpec


def _best_of(repeats: int, fn) -> float:
    """Run ``fn()`` *repeats* times; return the fastest wall time.

    Each trial starts from a collected heap: without this, garbage
    promoted to the old generation by trial N inflates the collector
    pauses trial N+1 pays, so repeats are not independent samples and
    the reported best drifts with suite ordering.  (The collection
    itself runs outside the timed window.)
    """
    import gc

    best = float("inf")
    for _ in range(max(repeats, 1)):
        gc.collect()
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# -- kernel -------------------------------------------------------------------


def bench_kernel_timers(n_events: int = 200_000, repeats: int = 3) -> Dict:
    """Schedule *n_events* one-shot timers, then drain the heap."""

    def run() -> None:
        sim = Simulator()
        sink: List[float] = []
        append = sink.append
        for i in range(n_events):
            sim.call_in(0.001 * (i % 97), lambda: append(0.0))
        sim.run()
        assert len(sink) == n_events

    seconds = _best_of(repeats, run)
    return {
        "seconds": seconds,
        "events": n_events,
        "events_per_s": n_events / seconds if seconds > 0 else 0.0,
        "params": {"n_events": n_events, "repeats": repeats},
    }


def bench_kernel_cascade(n_events: int = 200_000, repeats: int = 3) -> Dict:
    """A single timer chain that reschedules itself *n_events* times.

    This is the allocator's completion-timer shape: every firing
    schedules the next, so heap depth stays ~1 and the bench isolates
    per-event dispatch cost from heap depth.
    """

    def run() -> None:
        sim = Simulator()
        state = {"left": n_events}

        def tick() -> None:
            state["left"] -= 1
            if state["left"] > 0:
                sim.call_in(0.001, tick)

        sim.call_in(0.001, tick)
        sim.run()
        assert state["left"] == 0

    seconds = _best_of(repeats, run)
    return {
        "seconds": seconds,
        "events": n_events,
        "events_per_s": n_events / seconds if seconds > 0 else 0.0,
        "params": {"n_events": n_events, "repeats": repeats},
    }


def bench_kernel_timers_dense(
    n_events: int = 200_000, n_instants: int = 8, repeats: int = 3
) -> Dict:
    """All timers land on a handful of instants: the dense-bucket shape.

    With ``n_events / n_instants`` entries per slot this isolates the
    same-instant path — bucket append on schedule, in-place batch drain
    on dispatch — with almost no key-heap traffic, which is the shape a
    synchronized crowd's per-client timers put on the kernel.
    """

    def run() -> None:
        sim = Simulator()
        sink: List[float] = []
        append = sink.append
        for i in range(n_events):
            sim.call_in(0.001 * (i % n_instants), lambda: append(0.0))
        sim.run()
        assert len(sink) == n_events

    seconds = _best_of(repeats, run)
    return {
        "seconds": seconds,
        "events": n_events,
        "events_per_s": n_events / seconds if seconds > 0 else 0.0,
        "params": {
            "n_events": n_events,
            "n_instants": n_instants,
            "repeats": repeats,
        },
    }


def bench_kernel_cancel_churn(n_events: int = 200_000, repeats: int = 3) -> Dict:
    """Cancel-heavy dispatch: every firing supersedes a pending timer.

    This is the fluid network's completion-timer pattern — each rate
    recompute cancels the stale completion timer and arms a fresh one —
    run pure: every tick cancels the decoy armed by the previous tick
    and schedules both the next decoy (far future, never fires) and the
    next tick.  Tombstones therefore accumulate at one cancellation per
    event and the run loop must repeatedly compact the pending
    structure mid-flight; the bench fails if the structure is ever
    allowed to grow without bound, because wall time would go
    quadratic.
    """

    def run() -> None:
        sim = Simulator()
        state: Dict = {"left": n_events, "victim": None}
        noop = lambda: None  # noqa: E731

        def tick() -> None:
            state["left"] -= 1
            victim = state["victim"]
            if victim is not None:
                victim.cancel()
            if state["left"] > 0:
                state["victim"] = sim.call_in(2.0, noop)
                sim.call_in(0.001, tick)

        sim.call_in(0.001, tick)
        sim.run()
        assert state["left"] == 0

    seconds = _best_of(repeats, run)
    return {
        "seconds": seconds,
        "events": n_events,
        "events_per_s": n_events / seconds if seconds > 0 else 0.0,
        "params": {"n_events": n_events, "repeats": repeats},
    }


# -- allocator ----------------------------------------------------------------


def bench_allocator(
    n_flows: int = 100,
    n_idle_links: int = 200,
    n_rounds: int = 20,
    repeats: int = 3,
) -> Dict:
    """Max-min recompute cost at *n_flows* concurrent transfers.

    The topology registers ``n_idle_links`` client access links (one
    per fleet client, as MFC worlds do) but only ``n_flows`` of them
    carry a transfer; each round starts the flows and drains them,
    which exercises one recompute per join plus one per completion.
    """
    from repro.net.link import Network

    state: Dict = {}

    def run() -> None:
        sim = Simulator()
        net = Network(sim)
        server = net.add_link("server", 1e9)
        access = [
            net.add_link(f"acc{i}", 12.5e6) for i in range(max(n_idle_links, n_flows))
        ]
        for _ in range(n_rounds):
            transfers = [
                net.start_transfer([server, access[i]], 100_000.0)
                for i in range(n_flows)
            ]
            sim.run()
            assert all(t.done.processed for t in transfers)
        state["recomputes"] = net.allocations

    seconds = _best_of(repeats, run)
    # measured allocator passes: one per (eagerly flushed, outside-run)
    # join plus, per round, one batched sweep of the equal-rate
    # completions that land on a single timestamp — n_rounds*(n_flows+1)
    recomputes = state["recomputes"]
    return {
        "seconds": seconds,
        "recomputes": recomputes,
        "us_per_recompute": seconds / recomputes * 1e6 if recomputes else 0.0,
        "params": {
            "n_flows": n_flows,
            "n_idle_links": n_idle_links,
            "n_rounds": n_rounds,
            "repeats": repeats,
        },
    }


def bench_allocator_sync_crowd(
    n_clients: int = 500,
    n_rounds: int = 8,
    repeats: int = 3,
) -> Dict:
    """Allocator cost for crowds synchronized *by construction*.

    Every round fires one whole crowd — ``n_clients`` same-size
    transfers over (server link, private access link) paths — at a
    single simulated instant through :meth:`Network.start_transfers`,
    exactly the shape the paper's epochs have.  The end-of-instant
    transaction folds each round into one allocator pass for the joins
    and one for the batched completion sweep, where a per-event
    allocator would pay ``n_clients + 1`` passes; ``coalescing_factor``
    reports that ratio from the measured `Network.allocations` counter.
    """
    from repro.net.link import Network

    state: Dict = {}

    def run() -> None:
        sim = Simulator()
        net = Network(sim)
        server = net.add_link("server", 2.5e3 * n_clients)
        access = [net.add_link(f"acc{i}", 12.5e6) for i in range(n_clients)]

        def launch() -> None:
            net.start_transfers(
                [([server, access[i]], 250_000.0) for i in range(n_clients)]
            )

        for r in range(n_rounds):
            # rounds are spaced far beyond each crowd's drain time, so
            # every crowd starts (and, at equal rates, completes) on
            # one timestamp of its own
            sim.call_at(r * 1000.0, launch)
        sim.run()
        assert not net._active
        state["recomputes"] = net.allocations

    seconds = _best_of(repeats, run)
    recomputes = state["recomputes"]
    per_event = n_rounds * (n_clients + 1)
    return {
        "seconds": seconds,
        "recomputes": recomputes,
        "per_event_recomputes": per_event,
        "coalescing_factor": per_event / recomputes if recomputes else 0.0,
        "params": {
            "n_clients": n_clients,
            "n_rounds": n_rounds,
            "repeats": repeats,
        },
    }


# -- end-to-end world ---------------------------------------------------------


def _result_fingerprint(result) -> str:
    """SHA-256 over the full canonical encoding of an MFCResult.

    Two runs (or two implementations) that produce byte-identical
    results produce equal fingerprints — this is the determinism guard
    ``repro perf`` checks against the recorded baseline.
    """
    from repro.campaign.codec import encode_result

    doc = encode_result(result, detail="full")
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(blob.encode("utf-8")).hexdigest()


def bench_world(
    n_clients: int = 200,
    max_crowd: int = 200,
    crowd_step: int = 10,
    seed: int = 0,
    repeats: int = 1,
    crowd_mode: Optional[str] = None,
) -> Dict:
    """The acceptance benchmark: a full Large Object MFC experiment.

    Builds a ``qtnp``-grade world with *n_clients* fleet clients, runs
    the Large Object stage to its crowd cap and reports wall seconds,
    simulated request count, the result fingerprint and the world's
    spec hash (so a bench record names the exact declarative world it
    measured; ``spec_hash`` sits outside ``params`` to keep records
    comparable across assembly-layer refactors that preserve results).

    *crowd_mode* selects the epoch fan-out (``"cohort"`` for
    aggregated macro-flows); the default ``None`` keeps the historical
    exact-mode spec hash and fingerprint byte-stable.
    """
    spec = WorldSpec(
        scenario=presets.qtnp_server(),
        fleet=FleetSpec(n_clients=n_clients),
        config=MFCConfig(
            threshold_s=0.100,
            max_crowd=max_crowd,
            crowd_step=crowd_step,
            initial_crowd=crowd_step,
            min_clients=min(50, max(1, int(n_clients * 0.75))),
        ),
        seed=seed,
        stages=("LargeObject",),
        crowd_mode=crowd_mode,
    )
    state: Dict = {}

    def run() -> None:
        state["result"] = spec.build().run()

    seconds = _best_of(repeats, run)
    result = state["result"]
    params = {
        "n_clients": n_clients,
        "max_crowd": max_crowd,
        "crowd_step": crowd_step,
        "seed": seed,
        "repeats": repeats,
    }
    if crowd_mode is not None:
        params["crowd_mode"] = crowd_mode
    return {
        "seconds": seconds,
        "requests": result.total_requests,
        "requests_per_s": result.total_requests / seconds if seconds > 0 else 0.0,
        "fingerprint": _result_fingerprint(result),
        "spec_hash": "sha256:" + spec.spec_hash,
        "params": params,
    }


def bench_crowd(
    n_clients: int = 2000,
    max_crowd: int = 2000,
    crowd_step: int = 100,
    seed: int = 0,
    repeats: int = 1,
    exact_arm: bool = True,
) -> Dict:
    """Cohort-aggregated crowd sweep vs exact per-client fan-out.

    The tentpole benchmark for cohort crowd mode: one qtnp-grade Large
    Object world with a crowd ramp deep into four-digit epochs, run
    with ``threshold_s`` parked at 1.0 s so **both** arms sweep the
    full ramp to the cap (no verdict-dependent early exit) and do
    identical scheduled work.  The gated ``seconds`` is the cohort
    arm's wall time; ``speedup`` is the events-throughput ratio
    (cohort requests/s over exact requests/s).  Both arms' stage
    outcomes ride along so a regression that buys speed by changing
    the answer is visible in the record, and each arm is separately
    fingerprinted.

    ``exact_arm=False`` skips the exact run for crowd sizes where
    per-client simulation is too slow to gate on (the 5000-client
    bench) — the cohort arm is still fingerprinted and timed.
    """

    def spec_for(mode: Optional[str]) -> WorldSpec:
        return WorldSpec(
            scenario=presets.qtnp_server(),
            fleet=FleetSpec(n_clients=n_clients),
            config=MFCConfig(
                threshold_s=1.0,
                max_crowd=max_crowd,
                crowd_step=crowd_step,
                initial_crowd=crowd_step,
                min_clients=min(50, max(1, int(n_clients * 0.75))),
            ),
            seed=seed,
            stages=("LargeObject",),
            crowd_mode=mode,
        )

    cohort_spec = spec_for("cohort")
    state: Dict = {}

    def run_cohort() -> None:
        state["cohort"] = cohort_spec.build().run()

    seconds = _best_of(repeats, run_cohort)
    cohort_result = state["cohort"]
    stage_name = StageKind.LARGE_OBJECT.value
    cohort_stage = cohort_result.stage(stage_name)
    requests = cohort_result.total_requests
    requests_per_s = requests / seconds if seconds > 0 else 0.0
    record = {
        "seconds": seconds,
        "requests": requests,
        "requests_per_s": requests_per_s,
        "outcome": cohort_stage.describe(),
        "fingerprint": _result_fingerprint(cohort_result),
        "spec_hash": "sha256:" + cohort_spec.spec_hash,
        "params": {
            "n_clients": n_clients,
            "max_crowd": max_crowd,
            "crowd_step": crowd_step,
            "seed": seed,
            "repeats": repeats,
            "exact_arm": exact_arm,
        },
    }
    if exact_arm:
        exact_spec = spec_for(None)

        def run_exact() -> None:
            state["exact"] = exact_spec.build().run()

        exact_seconds = _best_of(repeats, run_exact)
        exact_result = state["exact"]
        exact_requests = exact_result.total_requests
        exact_rps = exact_requests / exact_seconds if exact_seconds > 0 else 0.0
        record.update(
            exact_seconds=exact_seconds,
            exact_requests=exact_requests,
            exact_requests_per_s=exact_rps,
            exact_outcome=exact_result.stage(stage_name).describe(),
            exact_fingerprint=_result_fingerprint(exact_result),
            speedup=requests_per_s / exact_rps if exact_rps > 0 else 0.0,
        )
    return record


def bench_bisect_ramp(
    n_clients: int = 200,
    max_crowd: int = 200,
    crowd_step: int = 5,
    access_mbps: float = 2000.0,
    seed: int = 0,
    repeats: int = 1,
) -> Dict:
    """Epoch-count savings of ``BisectKnee`` vs ``LinearRamp``.

    Runs the 200-client Large Object world twice — identical scenario,
    fleet, config and seed, only the epoch-progression strategy
    differs — on a LAN fleet against a widened access link, which puts
    the bandwidth knee high in the sweep (the regime where a linear
    ramp pays one epoch per step).  Reports each planner's epoch and
    request counts, their stopping sizes, and ``epoch_savings`` =
    linear epochs / bisect epochs — the paper's §7 intrusiveness
    metric: how many synchronized bursts the target absorbs before the
    MFC reaches its verdict.
    """
    scenario = dataclasses.replace(
        presets.qtnp_server(),
        server_access_bps=access_mbps * 1e6 / 8.0,
    )
    config = MFCConfig(
        threshold_s=0.100,
        max_crowd=max_crowd,
        crowd_step=crowd_step,
        initial_crowd=crowd_step,
        min_clients=min(50, max(1, int(n_clients * 0.75))),
    )

    def spec_for(planner: Optional[PlannerSpec]) -> WorldSpec:
        return WorldSpec(
            scenario=scenario,
            fleet=lan_fleet(n_clients),
            config=config,
            seed=seed,
            stages=("LargeObject",),
            planner=planner,
        )

    linear_spec = spec_for(None)
    bisect_spec = spec_for(PlannerSpec(name="bisect"))
    state: Dict = {}

    def run() -> None:
        state["linear"] = linear_spec.build().run()
        state["bisect"] = bisect_spec.build().run()

    seconds = _best_of(repeats, run)
    stage_name = StageKind.LARGE_OBJECT.value
    linear = state["linear"].stage(stage_name)
    bisect = state["bisect"].stage(stage_name)
    fingerprint = "sha256:" + hashlib.sha256(
        (
            _result_fingerprint(state["linear"])
            + _result_fingerprint(state["bisect"])
        ).encode("ascii")
    ).hexdigest()
    return {
        "seconds": seconds,
        "epochs_linear": linear.epoch_count,
        "epochs_bisect": bisect.epoch_count,
        "epoch_savings": (
            linear.epoch_count / bisect.epoch_count if bisect.epoch_count else 0.0
        ),
        "requests_linear": linear.total_requests,
        "requests_bisect": bisect.total_requests,
        "stop_linear": linear.describe(),
        "stop_bisect": bisect.describe(),
        "fingerprint": fingerprint,
        "spec_hash": "sha256:" + bisect_spec.spec_hash,
        "params": {
            "n_clients": n_clients,
            "max_crowd": max_crowd,
            "crowd_step": crowd_step,
            "access_mbps": access_mbps,
            "seed": seed,
            "repeats": repeats,
        },
    }


# -- campaign dispatch --------------------------------------------------------


def _micro_world(index: int, seed: int) -> "WorldSpec":
    """The cheapest world the engine runs: one client, one-request crowd.

    Population campaigns are dominated by dispatch overhead exactly
    when their worlds are this small, so the campaign bench packs the
    pool with these and measures the engine, not the simulation.
    """
    from repro.worlds.spec import SyntheticSpec

    return WorldSpec(
        synthetic=SyntheticSpec(
            model="linear", params={"seconds_per_request": 0.0005}
        ),
        fleet=lan_fleet(1),
        config=MFCConfig(
            threshold_s=0.100,
            max_crowd=1,
            initial_crowd=1,
            crowd_step=1,
            min_clients=1,
        ),
        seed=seed + index,
    )


def bench_campaign(
    n_worlds: int = 4000,
    jobs: int = 2,
    per_job_worlds: Optional[int] = None,
    seed: int = 0,
    repeats: int = 1,
) -> Dict:
    """Campaign dispatch throughput: batched pool vs per-job dispatch.

    Runs *n_worlds* micro-worlds three ways: auto-sized worker batches
    committing through a store (the population-scale path), ``batch=1``
    — one job per worker task (per-task IPC, one fsync per record) —
    and sequentially into
    an in-memory store, which is the pure compute floor.  The floor
    separates world cost from engine cost: ``dispatch_speedup`` is the
    raw batched/per-job throughput ratio (compute-bound on one core),
    while ``overhead_speedup`` divides the two arms' *above-floor*
    per-world overhead — the dispatch cost itself, which is what
    batching removes and what dominates 100k-world campaigns on real
    fleets.  ``worlds_per_s`` (the gated metric) comes from the
    batched arm.  Each arm rebuilds its job list so all pay identical
    key-hashing cost, and the fingerprint hashes every result in
    campaign order — the batched path must stay byte-identical to
    sequential dispatch.
    """
    import shutil
    import tempfile
    from pathlib import Path

    from repro.campaign.executor import run_campaign
    from repro.campaign.spec import CampaignSpec, JobSpec

    per_job_n = per_job_worlds if per_job_worlds is not None else n_worlds
    state: Dict = {}

    def spec_for(count: int) -> "CampaignSpec":
        return CampaignSpec(
            name="bench-campaign",
            jobs=[
                JobSpec.from_world(f"bench-{i}", _micro_world(i, seed))
                for i in range(count)
            ],
        )

    def run_batched() -> None:
        spec = spec_for(n_worlds)
        tmp = tempfile.mkdtemp(prefix="bench-campaign-")
        try:
            state["outcomes"] = run_campaign(
                spec, jobs=jobs, store=Path(tmp) / "cache.d", progress=False
            )
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def run_per_job() -> None:
        spec = spec_for(per_job_n)
        tmp = tempfile.mkdtemp(prefix="bench-campaign-")
        try:
            run_campaign(
                spec,
                jobs=jobs,
                store=Path(tmp) / "cache.d",
                progress=False,
                batch=1,
            )
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def run_sequential() -> None:
        run_campaign(spec_for(n_worlds), jobs=None, progress=False)

    seconds = _best_of(repeats, run_batched)
    per_job_seconds = _best_of(repeats, run_per_job)
    seq_seconds = _best_of(repeats, run_sequential)
    digest = hashlib.sha256()
    for outcome in state["outcomes"]:
        digest.update(_result_fingerprint(outcome.result).encode("ascii"))
    worlds_per_s = n_worlds / seconds if seconds > 0 else 0.0
    per_job_worlds_per_s = (
        per_job_n / per_job_seconds if per_job_seconds > 0 else 0.0
    )
    floor = seq_seconds / n_worlds
    batched_overhead = seconds / n_worlds - floor
    per_job_overhead = per_job_seconds / per_job_n - floor
    # a batched arm that beats sequential (multi-core) has no
    # measurable overhead left; clamp at 1 us/world to keep the ratio
    # finite and JSON-encodable
    batched_overhead = max(batched_overhead, 1e-6)
    return {
        "seconds": seconds,
        "worlds": n_worlds,
        "worlds_per_s": worlds_per_s,
        "per_job_seconds": per_job_seconds,
        "per_job_worlds": per_job_n,
        "per_job_worlds_per_s": per_job_worlds_per_s,
        "seq_seconds": seq_seconds,
        "dispatch_speedup": (
            worlds_per_s / per_job_worlds_per_s if per_job_worlds_per_s else 0.0
        ),
        "overhead_us_batched": batched_overhead * 1e6,
        "overhead_us_per_job": per_job_overhead * 1e6,
        "overhead_speedup": (
            per_job_overhead / batched_overhead if per_job_overhead > 0 else 0.0
        ),
        "fingerprint": "sha256:" + digest.hexdigest(),
        "params": {
            "n_worlds": n_worlds,
            "jobs": jobs,
            "per_job_worlds": per_job_n,
            "seed": seed,
            "repeats": repeats,
        },
    }


def bench_cohort_campaign(
    n_worlds: int = 8,
    n_clients: int = 500,
    max_crowd: int = 400,
    crowd_step: int = 20,
    jobs: int = 2,
    seed: int = 0,
    repeats: int = 1,
) -> Dict:
    """Campaign-level speedup of cohort crowd mode on scenario worlds.

    The micro-world campaign bench measures the *engine*; this one
    measures what aggregation buys a real survey: *n_worlds* qtnp
    Large Object worlds (distinct seeds) dispatched through the
    batched pool twice — once exact, once with ``crowd_mode="cohort"``
    — through throwaway sharded stores.  The gated ``seconds`` is the
    cohort arm; ``campaign_speedup`` is the worlds-per-second ratio.
    Verdict parity across the pair is the equivalence grid's job
    (``repro equiv``); here both arms' results are fingerprinted so a
    drift is at least visible.
    """
    import shutil
    import tempfile
    from pathlib import Path

    from repro.campaign.executor import run_campaign
    from repro.campaign.spec import CampaignSpec, JobSpec

    def world_for(index: int, mode: Optional[str]) -> WorldSpec:
        return WorldSpec(
            scenario=presets.qtnp_server(),
            fleet=FleetSpec(n_clients=n_clients),
            config=MFCConfig(
                threshold_s=0.100,
                max_crowd=max_crowd,
                crowd_step=crowd_step,
                initial_crowd=crowd_step,
                min_clients=min(50, max(1, int(n_clients * 0.75))),
            ),
            seed=seed + index,
            stages=("LargeObject",),
            crowd_mode=mode,
        )

    state: Dict = {}

    def run_mode(mode: Optional[str], key: str):
        spec = CampaignSpec(
            name=f"bench-cohort-campaign-{key}",
            jobs=[
                JobSpec.from_world(f"bench-{key}-{i}", world_for(i, mode))
                for i in range(n_worlds)
            ],
        )
        tmp = tempfile.mkdtemp(prefix="bench-cohort-campaign-")
        try:
            state[key] = run_campaign(
                spec, jobs=jobs, store=Path(tmp) / "cache.d", progress=False
            )
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    seconds = _best_of(repeats, lambda: run_mode("cohort", "cohort"))
    exact_seconds = _best_of(repeats, lambda: run_mode(None, "exact"))
    digest = hashlib.sha256()
    for outcome in state["cohort"]:
        digest.update(_result_fingerprint(outcome.result).encode("ascii"))
    exact_digest = hashlib.sha256()
    for outcome in state["exact"]:
        exact_digest.update(_result_fingerprint(outcome.result).encode("ascii"))
    worlds_per_s = n_worlds / seconds if seconds > 0 else 0.0
    exact_worlds_per_s = n_worlds / exact_seconds if exact_seconds > 0 else 0.0
    return {
        "seconds": seconds,
        "worlds": n_worlds,
        "worlds_per_s": worlds_per_s,
        "exact_seconds": exact_seconds,
        "exact_worlds_per_s": exact_worlds_per_s,
        "campaign_speedup": (
            worlds_per_s / exact_worlds_per_s if exact_worlds_per_s > 0 else 0.0
        ),
        "fingerprint": "sha256:" + digest.hexdigest(),
        "exact_fingerprint": "sha256:" + exact_digest.hexdigest(),
        "params": {
            "n_worlds": n_worlds,
            "n_clients": n_clients,
            "max_crowd": max_crowd,
            "crowd_step": crowd_step,
            "jobs": jobs,
            "seed": seed,
            "repeats": repeats,
        },
    }


def bench_triage_savings(
    scale: float = 0.41,
    pop_seed: int = 11,
    seed: int = 5,
    jobs: int = 4,
) -> Dict:
    """Two-phase triage vs full-MFC-everywhere on a mixed population.

    The acceptance benchmark for the triage engine (§7's intrusiveness
    concern at survey scale): arm A probes every site with the full
    default stage roster, arm B runs the indicator sweep and lets the
    classifier pick the targeted active probes.  Both arms are
    campaign runs through throwaway sharded stores, so the measured
    wall time includes the resumable-store path.  ``request_savings``
    (total requests A / total requests B) is the headline; the
    agreement triple (``caught``/``missed``/``extra`` versus arm A's
    stopped stages) rides along so a savings win can never silently
    come from dropping recall.  Request totals are deterministic for
    fixed seeds; wall times wobble, which is why the ``--check`` gate
    rides on ``seconds`` like every other bench.
    """
    import shutil
    import tempfile
    from pathlib import Path

    from repro.campaign.executor import iter_campaign
    from repro.campaign.spec import JobSpec, derive_site_seed, _normalize_scenarios
    from repro.campaign.triage import iter_triage
    from repro.core.records import StageOutcome
    from repro.core.stages import DEFAULT_STAGE_NAMES
    from repro.workload.populations import generate_population, quantcast_strata

    sites = generate_population(quantcast_strata(scale), seed=pop_seed)
    config = MFCConfig(
        threshold_s=0.100, max_crowd=50, min_clients=min(50, int(60 * 0.75))
    )
    fleet = FleetSpec(n_clients=60)

    full_jobs = [
        JobSpec.from_world(
            f"{sid}|full|seed{seed}",
            WorldSpec(
                scenario=scenario,
                fleet=fleet,
                config=config,
                seed=derive_site_seed(seed, index),
                stages=tuple(DEFAULT_STAGE_NAMES),
            ),
            meta={"scenario_id": sid, **extra},
        )
        for index, (sid, scenario, extra) in enumerate(_normalize_scenarios(sites))
    ]

    tmp = tempfile.mkdtemp(prefix="bench-triage-")
    try:
        start = time.perf_counter()
        full_requests = 0
        full_stops: Dict[str, set] = {}
        for outcome in iter_campaign(
            full_jobs, jobs=jobs, store=Path(tmp) / "full.d", progress=False
        ):
            full_requests += outcome.result.total_requests
            full_stops[outcome.meta["scenario_id"]] = {
                name
                for name, st in outcome.result.stages.items()
                if st.outcome is StageOutcome.STOPPED
            }
        full_seconds = time.perf_counter() - start

        start = time.perf_counter()
        records = list(
            iter_triage(
                sites,
                config=config,
                fleet_spec=fleet,
                seed=seed,
                jobs=jobs,
                store=Path(tmp) / "triage.d",
            )
        )
        triage_seconds = time.perf_counter() - start
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    triage_requests = sum(r.total_requests for r in records)
    caught = missed = extra = 0
    digest = hashlib.sha256()
    for record in sorted(records, key=lambda r: r.site_id):
        truth = full_stops.get(record.site_id, set())
        active = {
            name
            for name, stop in (record.active_stops or {}).items()
            if stop is not None
        }
        caught += len(truth & active)
        missed += len(truth - active)
        extra += len(active - truth)
        digest.update(
            f"{record.site_id}|{record.label}|{sorted(active)}".encode()
        )
    return {
        "seconds": triage_seconds,
        "full_seconds": full_seconds,
        "sites": len(records),
        "requests_full": full_requests,
        "requests_triage": triage_requests,
        "request_savings": (
            full_requests / triage_requests if triage_requests else 0.0
        ),
        "wall_savings": (
            full_seconds / triage_seconds if triage_seconds > 0 else 0.0
        ),
        "caught": caught,
        "missed": missed,
        "extra": extra,
        "fingerprint": "sha256:" + digest.hexdigest(),
        "params": {
            "scale": scale,
            "pop_seed": pop_seed,
            "seed": seed,
            "jobs": jobs,
        },
    }


# -- suites -------------------------------------------------------------------


def kernel_bench_factories(quick: bool = False) -> Dict[str, "BenchFactory"]:
    """Key → zero-arg callable for every kernel/allocator bench."""
    n = 40_000 if quick else 200_000
    repeats = 2 if quick else 3
    flow_points = (10, 50) if quick else (10, 50, 100, 200)
    suffix = ".quick" if quick else ""
    factories: Dict[str, BenchFactory] = {
        f"kernel.timers{suffix}": lambda: bench_kernel_timers(
            n_events=n, repeats=repeats
        ),
        f"kernel.cascade{suffix}": lambda: bench_kernel_cascade(
            n_events=n, repeats=repeats
        ),
        f"kernel.timers_dense{suffix}": lambda: bench_kernel_timers_dense(
            n_events=n, repeats=repeats
        ),
        f"kernel.cancel_churn{suffix}": lambda: bench_kernel_cancel_churn(
            n_events=n, repeats=repeats
        ),
    }
    for flows in flow_points:
        factories[f"allocator.flows_{flows}{suffix}"] = (
            lambda flows=flows: bench_allocator(
                n_flows=flows,
                n_idle_links=200,
                n_rounds=4 if quick else 20,
                repeats=repeats,
            )
        )
    factories[f"allocator.sync_crowd{suffix}"] = lambda: bench_allocator_sync_crowd(
        n_clients=100 if quick else 500,
        n_rounds=2 if quick else 8,
        repeats=repeats,
    )
    return factories


def campaign_bench_factories(quick: bool = False) -> Dict[str, "BenchFactory"]:
    """Key → zero-arg callable for the campaign-engine benches."""
    if quick:
        return {
            "campaign.worlds_per_s.quick": lambda: bench_campaign(
                n_worlds=300, jobs=2, repeats=1
            ),
            "campaign.cohort_worlds_per_s.quick": lambda: bench_cohort_campaign(
                n_worlds=4, n_clients=200, max_crowd=120,
                crowd_step=20, jobs=2, repeats=1,
            ),
        }
    return {
        "campaign.worlds_per_s": lambda: bench_campaign(
            n_worlds=2000, jobs=2, repeats=2
        ),
        "campaign.cohort_worlds_per_s": lambda: bench_cohort_campaign(
            n_worlds=8, n_clients=500, max_crowd=400,
            crowd_step=20, jobs=2, repeats=1,
        ),
    }


def triage_bench_factories(quick: bool = False) -> Dict[str, "BenchFactory"]:
    """Key → zero-arg callable for the triage benches."""
    if quick:
        return {
            "triage.request_savings.quick": lambda: bench_triage_savings(
                scale=0.05, jobs=2
            ),
        }
    return {
        "triage.request_savings": lambda: bench_triage_savings(scale=0.41, jobs=4),
    }


def world_bench_factories(quick: bool = False) -> Dict[str, "BenchFactory"]:
    """Key → zero-arg callable for the end-to-end world benches."""
    if quick:
        return {
            "world.large_object_60": lambda: bench_world(
                n_clients=60, max_crowd=40, crowd_step=10, repeats=1
            ),
            "world.bisect_ramp_60": lambda: bench_bisect_ramp(
                n_clients=60, max_crowd=60, crowd_step=5,
                access_mbps=500.0, repeats=1,
            ),
            "world.crowd_500": lambda: bench_crowd(
                n_clients=500, max_crowd=500, crowd_step=50, repeats=1
            ),
        }
    return {
        "world.large_object_200": lambda: bench_world(
            n_clients=200, max_crowd=200, crowd_step=10, repeats=2
        ),
        "world.large_object_500": lambda: bench_world(
            n_clients=500, max_crowd=400, crowd_step=20, repeats=1
        ),
        "world.large_object_1000": lambda: bench_world(
            n_clients=1000, max_crowd=600, crowd_step=30, repeats=1
        ),
        "world.bisect_ramp": lambda: bench_bisect_ramp(
            n_clients=200, max_crowd=200, crowd_step=5, repeats=1
        ),
        "world.crowd_2000": lambda: bench_crowd(
            n_clients=2000, max_crowd=2000, crowd_step=100, repeats=1
        ),
        "world.crowd_5000": lambda: bench_crowd(
            n_clients=5000, max_crowd=5000, crowd_step=250,
            repeats=1, exact_arm=False,
        ),
    }


def bench_factories(quick: bool = False) -> Dict[str, "BenchFactory"]:
    """Every bench key → zero-arg callable (``repro perf --profile``).

    The same tables the suites run, unevaluated — profiling one bench
    must not pay for the rest of its suite.
    """
    factories: Dict[str, BenchFactory] = {}
    factories.update(kernel_bench_factories(quick))
    factories.update(campaign_bench_factories(quick))
    factories.update(triage_bench_factories(quick))
    factories.update(world_bench_factories(quick))
    return factories


def run_kernel_suite(quick: bool = False) -> Dict[str, Dict]:
    """Kernel + allocator benches → the ``BENCH_kernel.json`` payload.

    Quick-mode keys carry a ``.quick`` suffix so quick and full runs
    keep separate baseline entries (their params differ, so they are
    never comparable anyway).
    """
    return {key: fn() for key, fn in kernel_bench_factories(quick).items()}


def run_campaign_suite(quick: bool = False) -> Dict[str, Dict]:
    """Campaign-engine benches → merged into the world payload.

    ``campaign.worlds_per_s``: micro-world dispatch throughput through
    the batched pool, with the per-job and sequential arms riding
    along inside the record for the A/B numbers.
    ``campaign.cohort_worlds_per_s``: scenario-world survey throughput
    with cohort aggregation, exact arm alongside.  Both gated by
    ``repro perf --check`` like every other bench (``seconds`` is the
    headline arm's wall time).
    """
    return {key: fn() for key, fn in campaign_bench_factories(quick).items()}


def run_triage_suite(quick: bool = False) -> Dict[str, Dict]:
    """Triage-engine benches → merged into the world payload.

    One key, ``triage.request_savings``: the two-phase arm versus
    full-MFC-everywhere on the mixed quantcast population (200 sites
    full, 24 quick).  The acceptance bar is a ≥5x request reduction on
    the full population; ``repro perf --check --check-keys triage.``
    gates the wall time like every other bench.
    """
    return {key: fn() for key, fn in triage_bench_factories(quick).items()}


def run_world_suite(quick: bool = False) -> Dict[str, Dict]:
    """End-to-end world benches → the ``BENCH_world.json`` payload.

    The full suite always contains the 200-client Large Object world —
    the acceptance benchmark — plus 500- and 1000-client crowd-scale
    worlds tracking the ROADMAP's thousand-client goal and the
    cohort-aggregated ``world.crowd_2000``/``world.crowd_5000``
    sweeps; ``quick`` swaps in small worlds for CI smoke runs (same
    shape, ~10x cheaper, still fingerprinted).
    """
    return {key: fn() for key, fn in world_bench_factories(quick).items()}
