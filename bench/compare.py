"""Compare benchmark runs of a parent commit and a change.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl [--json OUT]

Each file holds the JSON-lines records ``bench/run.py --json`` appends,
one per run.  Run both commits with identical settings, at least ten
pairs per workload, alternating which commit runs first; the i-th
parent run of a workload is paired with its i-th change run.

One row per workload and metric gives each side's median and
quartiles and a verdict, by the rule of the choosing-metrics guide:

- ``gain``: the change wins at least 9/10 of the pairs (ties count for
  neither) and the medians differ by more than the parent's IQR;
- ``REGRESSION``: the change's median is worse than the parent's by
  more than the metric's bound in ``BENCHMARK.json``;
- ``unresolved``: either side's IQR, as a share of its median, exceeds
  the bound, unless every change run reads better than every parent run;
- ``ok``: none of the above.  Per-layer metrics carry no bound and get
  ``gain`` or ``-``.

A rise in failed items on any workload is flagged.  The exit status is
1 when any row regressed or failures rose.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
#: the least number of pairs a gain may rest on
MIN_PAIRS = 10


def load_runs(path: str) -> Dict[str, List[Dict]]:
    """Run records of *path* grouped by workload, in file order."""
    runs: Dict[str, List[Dict]] = defaultdict(list)
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            runs[record["workload"]].append(record)
    return runs


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` (``statistics.quantiles``, exclusive method)."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def relative_spread(values: Sequence[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def compare_metric(parent: List[float], change: List[float], better: str, bound: Optional[float]) -> Dict:
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    row = {
        "parent": {"median": p_med, "q1": p_q1, "q3": p_q3, "n": len(parent),
                   "spread": relative_spread(parent)},
        "change": {"median": c_med, "q1": c_q1, "q3": c_q3, "n": len(change),
                   "spread": relative_spread(change)},
        "pairs": len(pairs),
        "wins": wins,
        "bound": bound,
    }
    gain = (
        len(pairs) >= MIN_PAIRS
        and wins >= 0.9 * len(pairs)
        and sign * (c_med - p_med) > p_q3 - p_q1
    )
    if bound is None:
        row["verdict"] = "gain" if gain else "-"
        return row
    worse_by = -sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    separated = all(sign * (c - p) > 0 for c in change for p in parent)
    spread = max(row["parent"]["spread"], row["change"]["spread"])
    if worse_by > bound:
        row["verdict"] = "REGRESSION"
    elif gain:
        row["verdict"] = "gain"
    elif spread > bound and not separated:
        row["verdict"] = "unresolved"
    else:
        row["verdict"] = "ok"
    row["worse_by"] = worse_by
    row["spread"] = spread
    return row


def spread_text(side: Dict) -> str:
    return f"{side['median']:.5g} [{side['q1']:.4g}, {side['q3']:.4g}]"


def compare(parent_runs: Dict, change_runs: Dict, spec: Dict) -> List[Dict]:
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    for workload in sorted(set(parent_runs) & set(change_runs)):
        parents, changes = parent_runs[workload], change_runs[workload]
        failed_rise = max(r["failed"] for r in changes) > max(r["failed"] for r in parents)
        names = [n for n in declared if n in parents[0]["metrics"] and n in changes[0]["metrics"]]
        for name in names:
            metric = declared[name]
            row = compare_metric(
                [r["metrics"][name]["value"] for r in parents],
                [r["metrics"][name]["value"] for r in changes],
                metric["better"],
                metric.get("bound"),
            )
            row.update(workload=workload, metric=name, unit=metric["unit"], failed_rise=failed_rise)
            rows.append(row)
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="JSON-lines run records of the parent commit")
    parser.add_argument("change", help="JSON-lines run records of the change")
    parser.add_argument("--json", metavar="OUT", help="also write the rows as JSON")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows = compare(load_runs(args.parent), load_runs(args.change), spec)
    if not rows:
        print("compare.py: no workload appears in both files", file=sys.stderr)
        return 2
    print(f"{'workload':<19} {'metric':<38} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'wins':>7} verdict")
    for row in rows:
        print(
            f"{row['workload']:<19} {row['metric']:<38} {spread_text(row['parent']):>30} "
            f"{spread_text(row['change']):>30} {row['wins']:>3}/{row['pairs']:<3} {row['verdict']}"
        )
    short = sorted({r["workload"] for r in rows if r["pairs"] < MIN_PAIRS})
    if short:
        print(f"fewer than {MIN_PAIRS} pairs on {short}: no gain can be claimed there")
    rose = sorted({r["workload"] for r in rows if r["failed_rise"]})
    if rose:
        print(f"FAILED ITEMS ROSE on {rose}")
    if args.json:
        Path(args.json).write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")
    regressed = any(r["verdict"] == "REGRESSION" for r in rows)
    return 1 if regressed or rose else 0


if __name__ == "__main__":
    sys.exit(main())
