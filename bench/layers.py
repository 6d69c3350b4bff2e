"""Per-layer attribution for the traced benchmark run.

Everything here observes the program from outside: cProfile tables are
folded by source file into the repository's layers, counts come from
the ``ncalls`` of public functions, and a few class-level wrappers read
counters the program already keeps (``Network.allocations``, the access
logs, ``StageResult`` annotations).  Nothing under ``src/`` changes.

Pool workers of the survey workload are profiled too: :meth:`Tracer.install`
wraps ``repro.campaign.executor._pool_worker_batch`` before the pool
forks.  The wrapper keeps the original's module and qualified name, so
pickle-by-reference resolves to it in the child; each worker profiles
its batches and dumps its cumulative stats and counters into the
tracer's dump directory, which the parent merges after the pool ends.
"""

from __future__ import annotations

import cProfile
import functools
import json
import os
import pstats
import time
import uuid
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple

#: ``src/repro`` packages that are layers of their own; time in any
#: other file (the standard library, builtins, this benchmark, or a
#: ``repro`` package outside these) is reported as ``stdlib``
LAYERS = (
    "sim",
    "net",
    "server",
    "core",
    "worlds",
    "content",
    "workload",
    "faults",
    "campaign",
)
#: modules whose self time is reported on its own
HOT_MODULES = (
    "sim.kernel",
    "sim.events",
    "sim.process",
    "sim.resources",
    "net.link",
    "net.tcp",
    "server.webserver",
    "server.resources",
    "core.coordinator",
    "core.client",
    "core.cohort",
    "faults.inject",
    "campaign.executor",
    "campaign.store",
    "campaign.codec",
    "worlds.codec",
)
#: pstats key of ``os.fsync`` (a builtin, so it has no code object)
FSYNC_KEY = ("~", 0, "<built-in method posix.fsync>")
#: where a profiled process blocks on another thread or process: the
#: survey's parent waiting for pool results.  Folded into ``wait``
#: rather than ``stdlib``, since it is time the work waited, not work.
WAIT_KEY = ("~", 0, "<method 'acquire' of '_thread.lock' objects>")

#: (cc, ncalls, tottime, cumtime, callers) per (file, line, function)
StatsTable = Dict[Tuple[str, int, str], tuple]


def code_key(func) -> Tuple[str, int, str]:
    """The pstats key cProfile files *func*'s calls under."""
    code = func.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def module_of(filename: str, src: Path) -> Optional[str]:
    """``"<package>.<module>"`` for a file under ``src/repro``, else None."""
    try:
        rel = Path(filename).resolve().relative_to(src / "repro")
    except ValueError:
        return None
    parts = rel.with_suffix("").parts
    return ".".join(parts) if len(parts) > 1 else None


def fold_self_time(table: StatsTable, src: Path) -> Dict[str, float]:
    """Sum ``tottime`` by layer (``<layer>``) and hot module (``<module>``).

    Every entry lands in exactly one layer or in ``wait``, so those sums
    add up to the profiled time (less the profiler's unattributed cost).
    """
    folded = {layer: 0.0 for layer in LAYERS + ("stdlib", "wait")}
    folded.update({module: 0.0 for module in HOT_MODULES})
    by_file: Dict[str, Optional[str]] = {}
    for key, (_cc, _nc, tottime, _ct, _callers) in table.items():
        if key == WAIT_KEY:
            folded["wait"] += tottime
            continue
        filename = key[0]
        if filename not in by_file:
            by_file[filename] = module_of(filename, src)
        module = by_file[filename]
        layer = module.split(".", 1)[0] if module else "stdlib"
        folded[layer if layer in LAYERS else "stdlib"] += tottime
        if module in folded and module not in LAYERS:
            folded[module] += tottime
    return folded


def ncalls(table: StatsTable, key: Tuple[str, int, str]) -> int:
    """Total calls recorded under *key* (0 when never called)."""
    entry = table.get(key)
    return entry[1] if entry is not None else 0


def load_table(profile: cProfile.Profile, paths: Iterable[Path] = ()) -> StatsTable:
    """Merge a live profile and dumped worker stats into one table."""
    stats = pstats.Stats(profile)
    for path in paths:
        stats.add(str(path))
    return dict(stats.stats)


class Counters:
    """Work counts read from the program's own objects after each world."""

    FIELDS = (
        "allocator_passes",
        "requests_refused",
        "epochs",
        "reports",
        "invalid_epochs",
        "quarantined_clients",
        "cohorts",
        "cohort_members",
        "build_s",
    )

    def __init__(self) -> None:
        self.values = {name: 0 for name in self.FIELDS}

    def observe_world(self, runner, result) -> None:
        """Fold one finished world's counters into the totals."""
        from repro.server.http import Status

        values = self.values
        values["allocator_passes"] += runner.topology.network.allocations
        values["requests_refused"] += sum(
            1
            for server in runner.servers
            for record in server.access_log.records
            if record.status is not Status.OK
        )
        for stage in getattr(result, "stages", {}).values():
            values["epochs"] += len(stage.epochs)
            values["reports"] += sum(len(e.reports) for e in stage.epochs)
            values["invalid_epochs"] += stage.invalid_epochs
            values["quarantined_clients"] += stage.quarantined_clients


class Tracer:
    """Installs the observation wrappers and collects what they see.

    One instance per benchmark process.  :meth:`install` patches the
    program's classes and module attributes in place (and never undoes
    it: the benchmark process ends with the run), so pool workers forked
    afterwards inherit the wrappers.
    """

    def __init__(self, dump_dir: Path) -> None:
        self.dump_dir = dump_dir
        self.counters = Counters()
        #: per-worker-process state, reset on the first batch after fork
        self._worker_pid: Optional[int] = None
        self._worker_profile: Optional[cProfile.Profile] = None
        self._worker_name = ""

    # -- wrappers ------------------------------------------------------------

    def install(self) -> None:
        import repro.campaign.executor as executor
        import repro.core.coordinator as coordinator
        from repro.core.indicator import IndicatorRunner
        from repro.core.runner import MFCRunner
        from repro.worlds.spec import WorldSpec

        counters = self.counters

        def timed_build(build):
            @functools.wraps(build)
            def wrapper(spec):
                started = time.perf_counter()
                try:
                    return build(spec)
                finally:
                    counters.values["build_s"] += time.perf_counter() - started

            return wrapper

        def observed_run(run):
            @functools.wraps(run)
            def wrapper(runner, *args, **kwargs):
                result = run(runner, *args, **kwargs)
                counters.observe_world(runner, result)
                return result

            return wrapper

        group_cohorts = coordinator.group_cohorts

        @functools.wraps(group_cohorts)
        def counted_group_cohorts(*args, **kwargs):
            cohorts = group_cohorts(*args, **kwargs)
            counters.values["cohorts"] += len(cohorts)
            counters.values["cohort_members"] += sum(c.weight for c in cohorts)
            return cohorts

        worker_batch = executor._pool_worker_batch

        @functools.wraps(worker_batch)
        def profiled_worker_batch(*args, **kwargs):
            profile = self._worker_begin()
            profile.enable()
            try:
                return worker_batch(*args, **kwargs)
            finally:
                profile.disable()
                self._worker_dump()

        WorldSpec.build = timed_build(WorldSpec.build)
        MFCRunner.run = observed_run(MFCRunner.run)
        IndicatorRunner.run = observed_run(IndicatorRunner.run)
        coordinator.group_cohorts = counted_group_cohorts
        executor._pool_worker_batch = profiled_worker_batch

    # -- pool workers ----------------------------------------------------------

    def _worker_begin(self) -> cProfile.Profile:
        if self._worker_pid != os.getpid():
            # first batch in a freshly forked worker: drop the parent's
            # counts inherited through fork and start a profile of its own
            self._worker_pid = os.getpid()
            self._worker_profile = cProfile.Profile()
            self._worker_name = f"worker-{os.getpid()}-{uuid.uuid4().hex[:8]}"
            self.counters.values = dict.fromkeys(self.counters.values, 0)
        return self._worker_profile

    def _worker_dump(self) -> None:
        """Write this worker's cumulative stats (overwriting the last dump);
        the parent reads them once the pool has shut down."""
        base = self.dump_dir / self._worker_name
        self._worker_profile.dump_stats(base.with_suffix(".prof"))
        base.with_suffix(".json").write_text(json.dumps(self.counters.values))

    def collect_workers(self) -> Tuple[list, Dict[str, float]]:
        """Worker stat files and summed counters dumped so far."""
        profiles = sorted(self.dump_dir.glob("worker-*.prof"))
        counts: Dict[str, float] = {}
        for path in sorted(self.dump_dir.glob("worker-*.json")):
            for name, value in json.loads(path.read_text()).items():
                counts[name] = counts.get(name, 0) + value
        return profiles, counts

    def clear_workers(self) -> None:
        for path in self.dump_dir.glob("worker-*"):
            path.unlink()
