"""Run one benchmark workload in this process and print what it measured.

    python bench/measure.py --workload NAME --seed S --seconds T --trace 0|1
                            [--rounds N] [--smoke] [--setup-only]

``bench/run.py`` starts this in a fresh interpreter once per workload,
and nine more times with ``--setup-only`` to time set-up.  The last line
of standard output is one JSON document that ``run.py`` turns into the
benchmark's result.

An untraced run does ``--seconds`` divided by the workload's nominal
round time, rounded, in whole rounds (at least one); ``--rounds`` fixes
the count instead.  With ``--trace 1`` round 0 first runs untraced, for
the tracing overhead, and then profiled rounds run until their summed
wall time is nearest to ``--seconds``.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gc
import hashlib
import importlib
import json
import math
import os
import pkgutil
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from heapq import heappop, heappush
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: where runs keep their result stores and worker profiles (inside the
#: checkout, removed when the run ends)
SCRATCH_ROOT = ROOT / ".bench_tmp"
#: seconds :func:`reference_loop` takes on the reference machine (a
#: 2-vCPU x86-64 VM, CPython 3.11, at its fastest); untraced times are
#: reported in that machine's seconds
REFERENCE_LOOP_S = 0.0105


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of *n* samples beyond it.

    p90 at n=100, p80 at n=50, p66 at n=30; with 20 samples or fewer
    the tail collapses to the median.
    """
    if n < 1:
        raise ValueError("no samples")
    return max(50, 100 * (n - 10) // n)


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 300):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def quantile(samples: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the *q* quantile.

    A Beta-weighted mean of all order statistics instead of one or two
    of them.  The worlds of a round cluster by scenario, so a median or
    a tail percentile often falls in a gap between clusters, where a
    single order statistic jumps with every small timing change; the
    weighted estimate moves smoothly.
    """
    ordered = sorted(samples)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * ordered[i] for i in range(n))


def import_layers() -> None:
    """Import every module of the nine layers, as a user's first run does."""
    import repro
    from layers import LAYERS

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.split(".")[1] in LAYERS:
            importlib.import_module(info.name)


def reference_loop() -> float:
    """Wall time of a fixed pure-Python loop shaped like the kernel's:
    heap pushes and pops of small tuples, dict updates."""
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


def slowdown() -> float:
    """How much slower than the reference machine this process runs now:
    the faster of two reference-loop runs, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = min(reference_loop(), reference_loop())
    finally:
        if enabled:
            gc.enable()
    return best / REFERENCE_LOOP_S


def slowdown_on(cpus: Sequence[int]) -> float:
    """Mean :func:`slowdown` over *cpus*, read with this process pinned
    to each in turn.

    The machine's CPUs slow down independently of each other, so a pool
    spread over two of them runs at the mean of their two slowdowns.
    """
    home = os.sched_getaffinity(0)
    readings = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            readings.append(slowdown())
    finally:
        os.sched_setaffinity(0, home)
    return statistics.fmean(readings)


def planned_rounds(workload, seconds: float, rounds: Optional[int]) -> int:
    """Rounds an untraced run does: a fixed count for a given budget.

    The count comes from the workload's nominal round time on the
    reference machine, not from the clock, so every run of a seed does
    the same work and its counts and samples are comparable.
    """
    if rounds is not None:
        return rounds
    return max(1, round(seconds / workload.round_s))


def nearest_boundary(done: int, elapsed: float, seconds: float, rounds: Optional[int]) -> bool:
    """Whether a traced run starts another round: stop at the boundary
    nearest to the time budget (``--rounds`` fixes the count instead)."""
    if rounds is not None:
        return done < rounds
    return elapsed + elapsed / done / 2 < seconds


@contextlib.contextmanager
def profiling(profile: cProfile.Profile):
    """Profile the timed sections of a round, not its checks."""
    profile.enable()
    try:
        yield
    finally:
        profile.disable()


def fingerprint(documents) -> str:
    blob = json.dumps(documents, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(blob.encode("utf-8")).hexdigest()


def peak_rss_mib() -> float:
    """Peak RSS of this process or of any pool worker it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def summarize(results) -> Dict:
    """The parts of a run's record every mode shares."""
    from workloads import round_digest

    errors = [e for r in results for e in r.errors]
    return {
        "rounds": len(results),
        "attempted": sum(r.items for r in results),
        "failed": sum(r.failed for r in results),
        "errors": errors[:20],
        "round_digests": [round_digest(r.verdicts) for r in results],
        "round_items": [r.items for r in results],
    }


def untraced(workload, seed, seconds, rounds, scratch, first_inputs) -> Dict:
    cpus = sorted(os.sched_getaffinity(0))[: workload.processes]
    if len(cpus) == 1:
        # one world at a time: keep it on the CPU the readings are taken on
        os.sched_setaffinity(0, cpus)
    results = []
    started = time.perf_counter()
    for index in range(planned_rounds(workload, seconds, rounds)):
        if rounds is None and time.perf_counter() - started > 2 * seconds:
            break  # a much slower machine: keep the run inside its deadline
        inputs = first_inputs if index == 0 else workload.inputs(seed, index)
        results.append(
            workload.run(
                inputs, scratch, keep_documents=index == 0, slowdown=lambda: slowdown_on(cpus)
            )
        )

    samples = [s for r in results for s in r.world_s]
    items = sum(r.items for r in results)
    pct = tail_percentile(len(samples))
    record = summarize(results)
    record.update(
        n=len(samples),
        tail_pct=pct,
        slowdown=statistics.median(s for r in results for s in r.slowdowns),
        fingerprint=fingerprint(results[0].documents),
        metrics={
            "sites_per_s": items / sum(r.wall_s for r in results),
            "world_s.p50": quantile(samples, 0.5),
            "world_s.tail": quantile(samples, pct / 100),
            "probe_requests_per_site": sum(r.requests for r in results) / items,
            "peak_rss_mib": peak_rss_mib(),
        },
    )
    return record


def traced(workload, seed, seconds, rounds, scratch) -> Dict:
    from layers import FSYNC_KEY, HOT_MODULES, LAYERS, Tracer, code_key, fold_self_time, load_table, ncalls
    from repro.campaign.executor import execute_job
    from repro.campaign.store import ResultStore
    from repro.net.link import Transfer
    from repro.server.webserver import SimWebServer
    from repro.sim.kernel import Simulator

    calibration = workload.run(workload.inputs(seed, 0), scratch)
    tracer = Tracer(scratch / "profiles")
    tracer.dump_dir.mkdir()
    tracer.install()

    results = []
    self_s: Counter = Counter()
    totals: Counter = Counter()
    elapsed = 0.0
    first_table = first_counts = None
    while not results or nearest_boundary(len(results), elapsed, seconds, rounds):
        before = dict(tracer.counters.values)
        inputs = workload.inputs(seed, len(results))
        profile = cProfile.Profile()
        result = workload.run(inputs, scratch, section=lambda: profiling(profile))
        worker_files, worker_counts = tracer.collect_workers()
        table = load_table(profile, worker_files)
        tracer.clear_workers()
        counts = {
            name: value - before[name] + worker_counts.get(name, 0)
            for name, value in tracer.counters.values.items()
        }
        self_s.update(fold_self_time(table, SRC))
        totals.update(counts)
        totals.update(result.survey)
        if first_table is None:
            first_table, first_counts = table, counts
        results.append(result)
        elapsed += result.wall_s

    sites = sum(r.items for r in results)
    first = results[0]
    n0 = first.items

    def calls(*funcs) -> float:
        return sum(ncalls(first_table, code_key(f)) for f in funcs) / n0

    metrics = {f"{name}.self_s": self_s[name] / sites for name in LAYERS + ("stdlib",) + HOT_MODULES}
    survey = first.survey
    metrics.update(
        {
            "sim.timers_scheduled": calls(Simulator.call_at, Simulator.call_in),
            "sim.events_scheduled": calls(Simulator.schedule),
            "sim.processes": calls(Simulator.process),
            "net.allocator_passes": first_counts["allocator_passes"] / n0,
            "net.transfers_started": calls(Transfer.__init__),
            "server.requests_submitted": calls(SimWebServer.submit),
            "server.requests_refused": first_counts["requests_refused"] / n0,
            "core.epochs": first_counts["epochs"] / n0,
            "core.reports": first_counts["reports"] / n0,
            "core.invalid_epochs": first_counts["invalid_epochs"] / n0,
            "core.quarantined_clients": first_counts["quarantined_clients"] / n0,
            "core.cohorts": first_counts["cohorts"] / n0,
            "core.cohort_members": first_counts["cohort_members"] / n0,
            "core.cohort_compression": (
                first_counts["cohort_members"] / first_counts["cohorts"]
                if first_counts["cohorts"]
                else 0.0
            ),
            "campaign.jobs": calls(execute_job),
            "campaign.batches": calls(ResultStore.append_batch),
            "campaign.fsyncs": ncalls(first_table, FSYNC_KEY) / n0,
            "triage.probe_rate": survey.get("probed", 0) / n0,
            "triage.probe_yield": (
                survey["probe_stops"] / survey["probes"] if survey.get("probes") else 0.0
            ),
            "campaign.dispatch_overhead_us_per_job": (
                (totals["fresh_s"] * survey["workers"] - totals["job_s"]) / totals["jobs"] * 1e6
                if totals["jobs"]
                else 0.0
            ),
            "campaign.resume_s": totals["resume_s"] / sites,
            "campaign.resume_hit_rate": (
                totals["resume_hits"] / totals["jobs"] if totals["jobs"] else 0.0
            ),
            "campaign.pool_wait_s": self_s["wait"] / sites,
            "worlds.build_s": totals["build_s"] / sites,
            "trace.overhead_ratio": first.wall_s / calibration.wall_s,
        }
    )
    record = summarize(results)
    record.update(
        metrics=metrics,
        traced_wall_s=elapsed,
        self_s_total=sum(self_s[name] for name in LAYERS + ("stdlib", "wait")),
    )
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None,
                        help="run exactly this many rounds instead of --seconds")
    parser.add_argument("--smoke", action="store_true",
                        help="about 1/20 of the inputs, for self-tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="import and generate the first round's inputs, then exit")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(SRC), str(BENCH)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"measure: repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.make(args.workload, smoke=args.smoke)
    import_layers()
    first_inputs = workload.inputs(args.seed, 0)
    if args.setup_only:
        return 0

    SCRATCH_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH_ROOT))
    try:
        if args.trace:
            record = traced(workload, args.seed, args.seconds, args.rounds, scratch)
        else:
            record = untraced(
                workload, args.seed, args.seconds, args.rounds, scratch, first_inputs
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record.update(workload=args.workload, seed=args.seed, trace=args.trace, smoke=args.smoke)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
