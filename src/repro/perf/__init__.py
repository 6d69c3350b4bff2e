"""Kernel and allocator microbenchmarks.

End-to-end timing lives in the ``bench/`` workloads and the recorded
result fingerprints in the test suite (``tests/golden/
fingerprints.json``); this package times the two substrate layers no
workload isolates — the event kernel (`sim/`) and the fluid-network
rate allocator (`net/`):

- :mod:`repro.perf.benches` — the microbenchmarks, each record carrying
  a reference-loop slowdown reading;
- :mod:`repro.perf.baseline` — ``BENCH_*.json`` reading/writing and
  comparison against the recorded baseline in normalised seconds.

``repro perf`` (see :mod:`repro.cli`) drives both and emits
``BENCH_kernel.json``.
"""

from repro.perf.baseline import (
    BASELINE_FILENAME,
    compare_to_baseline,
    find_regressions,
    load_bench_file,
    write_bench_file,
)
from repro.perf.benches import (
    bench_allocator,
    bench_allocator_sync_crowd,
    bench_kernel_cascade,
    bench_kernel_timers,
    run_kernel_suite,
)

__all__ = [
    "BASELINE_FILENAME",
    "bench_allocator",
    "bench_allocator_sync_crowd",
    "bench_kernel_cascade",
    "bench_kernel_timers",
    "compare_to_baseline",
    "find_regressions",
    "load_bench_file",
    "run_kernel_suite",
    "write_bench_file",
]
