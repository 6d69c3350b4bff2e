"""Self-tests of the benchmark: ``PYTHONPATH=src python -m pytest bench/tests -q``.

They sit outside the tier-1 ``testpaths``; the benchmark's modules are
imported by name from ``bench/``.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
