"""End-to-end benchmark of the MFC reproduction.

    python3 bench/run.py [--workload NAME]... [--seed S] [--seconds T]
                         [--trace 0|1] [--smoke] [--json OUT]
    python3 bench/run.py --record

Each workload runs in a fresh interpreter (``bench/measure.py``), after
nine more fresh interpreters that only import ``repro`` and generate
the inputs, whose median time is ``setup_s``.  For every metric the run
prints one ``workload metric value unit`` line, and as its last line
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``, with ``--trace 1`` its per-layer metrics.

Verdicts are checked on every run: each world or site must pass the
structural checks in ``bench/workloads.py``, and for the seeds recorded
in ``bench/expected.json`` every round's verdict digest must match.  A
failed check counts its items as failed and the run exits 1.
``--record`` rewrites ``bench/expected.json`` from the current code.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from measure import slowdown

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MEASURE = BENCH / "measure.py"
EXPECTED = BENCH / "expected.json"
#: fresh interpreters whose median start-up is ``setup_s``
SETUP_PROBES = 9
#: a run, set-up probes included, ends within this many seconds
DEADLINE_S = 170.0
#: seeds and rounds ``--record`` writes verdict digests for
RECORD_SEEDS = (0, 1)
RECORD_ROUNDS = 8
#: metrics whose printed line carries the sample count
SAMPLED = {"setup_s", "sites_per_s", "world_s.p50", "world_s.tail"}


class BenchError(RuntimeError):
    """The benchmark itself could not produce a result."""


def load_spec() -> Dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_child(args: List[str], deadline: Optional[float]) -> str:
    """Run ``measure.py`` with *args*; return its stdout.

    The child gets a session of its own, so a timeout can stop it
    together with any pool workers it started.
    """
    proc = subprocess.Popen(
        [sys.executable, str(MEASURE), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        start_new_session=True,
        text=True,
    )
    timeout = None if deadline is None else max(deadline - time.monotonic(), 1.0)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"measure.py {' '.join(args)} ran out of time") from None
    if proc.returncode != 0:
        raise BenchError(f"measure.py {' '.join(args)} exited {proc.returncode}")
    return out


def last_json(text: str) -> Dict:
    lines = text.strip().splitlines()
    if not lines:
        raise BenchError("measure.py printed nothing")
    return json.loads(lines[-1])


def setup_seconds(workload: str, seed: int, smoke: bool, deadline: float) -> List[float]:
    """Wall time of fresh set-up-only interpreters, each divided by the
    machine slowdown read just before and after it."""
    args = ["--workload", workload, "--seed", str(seed), "--setup-only"]
    if smoke:
        args.append("--smoke")
    times = []
    for _ in range(SETUP_PROBES):
        before = slowdown()
        started = time.perf_counter()
        run_child(args, deadline)
        seconds = time.perf_counter() - started
        times.append(seconds * 2 / (before + slowdown()))
    return times


def check_digests(record: Dict, expected: Optional[List[str]]) -> None:
    """Count every item of a round whose verdict digest differs as failed."""
    for index, digest in enumerate(record["round_digests"][: len(expected or ())]):
        if digest != expected[index]:
            record["failed"] += record["round_items"][index]
            record["errors"].append(
                f"round {index}: verdict digest {digest} != recorded {expected[index]}"
            )


def run_workload(spec: Dict, workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> Dict:
    deadline = time.monotonic() + DEADLINE_S
    args = ["--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    args += ["--smoke", "--rounds", "1"] if smoke else ["--seconds", str(seconds)]
    setup = [] if trace else setup_seconds(workload, seed, smoke, deadline)
    record = last_json(run_child(args, deadline))
    if not smoke:
        expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
        check_digests(record, expected.get(workload, {}).get(str(seed)))

    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = dict(record["metrics"])
    if not trace:
        values["setup_s"] = statistics.median(setup)
        record["setup_n"] = len(setup)
    missing = {m["name"] for m in declared} ^ set(values)
    if missing:
        raise BenchError(f"{workload}: metrics differ from BENCHMARK.json: {sorted(missing)}")
    record["metrics"] = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
    }
    return record


def sample_note(name: str, record: Dict) -> str:
    if name not in SAMPLED:
        return ""
    if name == "setup_s":
        return f"  n={record['setup_n']}"
    if name == "sites_per_s":
        return f"  n={record['attempted']} rounds={record['rounds']}"
    if name == "world_s.tail":
        return f"  n={record['n']} p{record['tail_pct']}"
    return f"  n={record['n']}"


def report(workload: str, record: Dict) -> None:
    for name, metric in record["metrics"].items():
        print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}{sample_note(name, record)}")
    if "fingerprint" in record:
        print(f"{workload} fingerprint {record['fingerprint']} (round 0, informational)")
    if "self_s_total" in record:
        print(
            f"{workload} traced self time {record['self_s_total']:.4g} s over "
            f"{record['traced_wall_s']:.4g} s of traced sections (informational)"
        )
    for error in record["errors"]:
        print(f"{workload} FAILED {error}", file=sys.stderr)


def record_expected(spec: Dict) -> int:
    """Rewrite ``expected.json`` with the current code's verdict digests."""
    expected: Dict[str, Dict[str, List[str]]] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        expected[workload] = {}
        for seed in RECORD_SEEDS:
            args = ["--workload", workload, "--seed", str(seed), "--rounds", str(RECORD_ROUNDS)]
            record = last_json(run_child(args, None))
            if record["failed"]:
                print(f"{workload} seed {seed}: {record['errors']}", file=sys.stderr)
                return 1
            expected[workload][str(seed)] = record["round_digests"]
            print(f"{workload} seed {seed}: {record['round_digests']}")
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", default=None,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed (default 0; 0 and 1 have recorded verdicts)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a profiled run")
    parser.add_argument("--smoke", action="store_true",
                        help="one round of about 1/20 of the inputs (self-tests)")
    parser.add_argument("--json", metavar="OUT", default=None,
                        help="append each workload's full record to this JSON-lines file")
    parser.add_argument("--record", action="store_true",
                        help="rewrite bench/expected.json from the current code")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.record:
        return record_expected(spec)
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or names
    unknown = sorted(set(workloads) - set(names))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {names}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    status = 0
    for workload in workloads:
        try:
            record = run_workload(spec, workload, args.seed, seconds, args.trace, args.smoke)
        except BenchError as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 2
        report(workload, record)
        result = {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record["metrics"],
        }
        if args.json:
            with open(args.json, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({**record, **result}) + "\n")
        print(json.dumps(result))
        if record["failed"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
