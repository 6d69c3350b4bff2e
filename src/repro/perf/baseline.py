"""``BENCH_*.json`` files and baseline comparison.

A bench file is ``{"schema": 1, "benches": {key: record}}`` where each
record carries ``seconds``, ``slowdown`` and ``normalised_seconds``
(see :func:`repro.perf.benches._timed`), bench-specific throughput
fields and the ``params`` it ran with.  The *baseline* file uses the
same format; it is recorded with ``repro perf --update-baseline`` and
committed, so ``repro perf`` on any later checkout reports
speedup-vs-baseline in normalised seconds.

Records are only comparable when their ``params`` match and the
baseline entry has normalised seconds — a quick run is never compared
against a full baseline entry.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

#: the committed baseline all future perf PRs are judged against
BASELINE_FILENAME = "BENCH_baseline.json"

SCHEMA = 1


def write_bench_file(path: str, benches: Dict[str, Dict]) -> None:
    """Write a bench payload as a ``BENCH_*.json`` file."""
    doc = {"schema": SCHEMA, "benches": benches}
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_bench_file(path: str) -> Optional[Dict[str, Dict]]:
    """Load a bench payload; None when the file is absent."""
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"{path}: unsupported bench schema {doc.get('schema')!r}")
    return doc["benches"]


def compare_to_baseline(
    benches: Dict[str, Dict], baseline: Optional[Dict[str, Dict]]
) -> List[Dict]:
    """Per-bench comparison rows against a baseline payload.

    Each row has ``key``, ``seconds``, ``slowdown``,
    ``normalised_seconds``, ``baseline_normalised_seconds`` (None when
    the baseline lacks a comparable entry) and ``speedup``, the
    baseline/current ratio of normalised seconds.
    """
    rows: List[Dict] = []
    for key in sorted(benches):
        record = benches[key]
        row: Dict = {
            "key": key,
            "seconds": record["seconds"],
            "slowdown": record["slowdown"],
            "normalised_seconds": record["normalised_seconds"],
            "baseline_normalised_seconds": None,
            "speedup": None,
        }
        ref = (baseline or {}).get(key)
        if (
            ref is not None
            and ref.get("params") == record.get("params")
            and "normalised_seconds" in ref
        ):
            row["baseline_normalised_seconds"] = ref["normalised_seconds"]
            if record["normalised_seconds"] > 0:
                row["speedup"] = ref["normalised_seconds"] / record["normalised_seconds"]
        rows.append(row)
    return rows


def find_regressions(
    rows: List[Dict], max_regression: float = 0.25
) -> List[Dict]:
    """Comparison rows that regressed beyond the allowed fraction.

    A bench regresses when its normalised seconds exceed the baseline's
    by more than *max_regression*; rows without a comparable baseline
    entry are skipped (new benches cannot regress).  Each returned row
    carries ``key``, ``normalised_seconds``,
    ``baseline_normalised_seconds`` and ``ratio`` (current/baseline),
    worst first — this is what ``repro perf --check`` turns into a
    nonzero exit code.
    """
    if max_regression < 0:
        raise ValueError("max_regression must be non-negative")
    regressions: List[Dict] = []
    for row in rows:
        base = row["baseline_normalised_seconds"]
        if base is None or base <= 0:
            continue
        ratio = row["normalised_seconds"] / base
        if ratio > 1.0 + max_regression:
            regressions.append(
                {
                    "key": row["key"],
                    "normalised_seconds": row["normalised_seconds"],
                    "baseline_normalised_seconds": base,
                    "ratio": ratio,
                }
            )
    regressions.sort(key=lambda r: r["ratio"], reverse=True)
    return regressions


def render_comparison(rows: List[Dict]) -> str:
    """Monospace table of comparison rows for terminal output.

    ``normalised`` and ``baseline`` are normalised seconds.
    """
    lines = [
        f"{'bench':<28} {'seconds':>10} {'slowdown':>9} {'normalised':>11} "
        f"{'baseline':>10} {'speedup':>8}",
        "-" * 81,
    ]
    for row in rows:
        base = row["baseline_normalised_seconds"]
        base_text = f"{base:.4f}" if base is not None else "-"
        speed = f"{row['speedup']:.2f}x" if row["speedup"] is not None else "-"
        lines.append(
            f"{row['key']:<28} {row['seconds']:>10.4f} {row['slowdown']:>9.2f} "
            f"{row['normalised_seconds']:>11.4f} {base_text:>10} {speed:>8}"
        )
    return "\n".join(lines)
