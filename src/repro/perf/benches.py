"""Kernel and allocator microbenchmarks (``repro perf``).

Two layers, the ones no end-to-end workload of ``bench/`` isolates:

- **kernel** — raw timer throughput (`bench_kernel_timers`), a cascade
  of self-rescheduling timers (`bench_kernel_cascade`), timers packed
  onto a few instants (`bench_kernel_timers_dense`) and cancel-heavy
  dispatch (`bench_kernel_cancel_churn`), the shapes the fluid network
  and the coordinator put on the kernel;
- **allocator** — `bench_allocator` measures the max-min recompute cost
  as a function of concurrent flow count in a topology with many
  *registered but idle* access links, which is exactly the shape an
  MFC world has (every fleet client owns an access link, only the
  current crowd's links are active); `bench_allocator_sync_crowd`
  launches whole crowds at single simulated instants through the
  batch API and reports how many allocator passes the end-of-instant
  transaction folded away (`coalescing_factor`).

All benches measure wall-clock with ``time.perf_counter`` and report
the fastest of ``repeats`` trials.  Each trial follows a reading of a
reference loop, and the record's ``normalised_seconds`` divides out
those readings (see :func:`_timed`), so records from machines (or
moments) of different speed compare.  Everything inside a bench is
seeded and deterministic — two runs do identical simulated work, only
the wall clock differs.
"""

from __future__ import annotations

import gc
import time
from heapq import heappop, heappush
from statistics import median
from typing import Callable, Dict, List

from repro.sim.kernel import Simulator

#: a registered bench: zero-arg, returns the bench record
BenchFactory = Callable[[], Dict]

#: seconds :func:`reference_loop` takes on the reference machine, the
#: constant ``bench/measure.py`` divides by, so both report the same
#: slowdown scale
REFERENCE_LOOP_S = 0.0105


def reference_loop() -> float:
    """Wall time of a fixed pure-Python loop shaped like the kernel's:
    heap pushes and pops of small tuples, dict updates.

    A copy of ``bench/measure.py::reference_loop`` (the package cannot
    import the benchmark); keep the two identical.
    """
    heap: list = []
    table: dict = {}
    started = time.perf_counter()
    for i in range(20000):
        heappush(heap, (i * 7919 % 10007, i))
        key = i & 1023
        table[key] = table.get(key, 0) + 1
        if len(heap) > 64:
            heappop(heap)
    return time.perf_counter() - started


def _timed(repeats: int, fn) -> Dict:
    """Run ``fn()`` *repeats* times, each trial right after one run of
    :func:`reference_loop` (with the collector off), and return the
    timing fields every record carries:

    - ``seconds``: the fastest trial's wall time;
    - ``slowdown``: the median reference reading over
      :data:`REFERENCE_LOOP_S`;
    - ``normalised_seconds``: the median over trials of the trial's wall
      time divided by the slowdown read just before it, i.e. seconds on
      the reference machine.  This is what the gate compares: pairing
      each trial with its own reading follows a machine whose speed
      changes within the run, and the median ignores a trial that one
      reading misjudged.

    Each trial starts from a collected heap: without this, garbage
    promoted to the old generation by trial N inflates the collector
    pauses trial N+1 pays, so repeats are not independent samples and
    the reported times drift with suite ordering.  (The collection
    and the reference loop run outside the timed window.)
    """
    times: List[float] = []
    readings: List[float] = []
    for _ in range(max(repeats, 1)):
        gc.collect()
        gc.disable()
        try:
            readings.append(reference_loop() / REFERENCE_LOOP_S)
        finally:
            gc.enable()
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return {
        "seconds": min(times),
        "slowdown": median(readings),
        "normalised_seconds": median(t / s for t, s in zip(times, readings)),
    }


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

    timing = _timed(repeats, run)
    seconds = timing["seconds"]
    return {
        **timing,
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

    timing = _timed(repeats, run)
    seconds = timing["seconds"]
    return {
        **timing,
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

    timing = _timed(repeats, run)
    seconds = timing["seconds"]
    return {
        **timing,
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

    timing = _timed(repeats, run)
    seconds = timing["seconds"]
    return {
        **timing,
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

    timing = _timed(repeats, run)
    seconds = timing["seconds"]
    # measured allocator passes: one per (eagerly flushed, outside-run)
    # join plus, per round, one batched sweep of the equal-rate
    # completions that land on a single timestamp — n_rounds*(n_flows+1)
    recomputes = state["recomputes"]
    return {
        **timing,
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

    timing = _timed(repeats, run)
    recomputes = state["recomputes"]
    per_event = n_rounds * (n_clients + 1)
    return {
        **timing,
        "recomputes": recomputes,
        "per_event_recomputes": per_event,
        "coalescing_factor": per_event / recomputes if recomputes else 0.0,
        "params": {
            "n_clients": n_clients,
            "n_rounds": n_rounds,
            "repeats": repeats,
        },
    }


# -- suites -------------------------------------------------------------------


def bench_factories(quick: bool = False) -> Dict[str, BenchFactory]:
    """Key → zero-arg callable for every bench (``repro perf --profile``
    runs one of them alone)."""
    n = 40_000 if quick else 200_000
    # quick sizes run in milliseconds, where single trials are
    # noisiest; five give the normalised median something to choose
    repeats = 5 if quick else 3
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


def run_kernel_suite(quick: bool = False) -> Dict[str, Dict]:
    """Kernel + allocator benches → the ``BENCH_kernel.json`` payload.

    Quick-mode keys carry a ``.quick`` suffix so quick and full runs
    keep separate baseline entries (their params differ, so they are
    never comparable anyway).
    """
    return {key: fn() for key, fn in bench_factories(quick).items()}
