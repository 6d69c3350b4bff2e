"""A finished world holds only what its results need.

The access log keeps one entry per request, tens of thousands in a
cohort world, so it is stored by column.  These tests pin that it reads
back exactly what was logged and retains a bounded number of bytes per
record, and that the slotted per-member reports still pickle and copy.
"""

import copy
import dataclasses
import gc
import math
import pickle
import tracemalloc

import pytest

from repro.core.config import MFCConfig
from repro.core.records import ClientReport
from repro.server.accesslog import AccessLog, LogRecord
from repro.server.http import HTTPRequest, Method, Status
from repro.workload.fleet import FleetSpec
from repro.worlds.registry import SCENARIO_PRESETS
from repro.worlds.spec import WorldSpec


def _world(scenario, n_clients, max_crowd, step, crowd_mode=None, seed=1):
    return WorldSpec(
        scenario=SCENARIO_PRESETS[scenario](),
        fleet=FleetSpec(n_clients=n_clients),
        config=MFCConfig(
            max_crowd=max_crowd,
            crowd_step=step,
            initial_crowd=step,
            min_clients=48,
        ),
        seed=seed,
        crowd_mode=crowd_mode,
    )


@pytest.fixture
def captured(monkeypatch):
    """Every log's writes, captured as records on the way in."""
    seen = {}
    write = AccessLog.log

    def log(self, request, arrival_time, status, bytes_sent, completion_time=None):
        seen.setdefault(self, []).append(
            LogRecord(
                arrival_time,
                request.client_id,
                request.method,
                request.path,
                status,
                bytes_sent,
                completion_time,
                request.is_mfc,
                request.request_id,
            )
        )
        write(self, request, arrival_time, status, bytes_sent, completion_time)

    monkeypatch.setattr(AccessLog, "log", log)
    return seen


def _assert_read_types(records):
    for r in records:
        assert r.status.__class__ is Status
        assert r.method.__class__ is Method
        assert r.is_mfc.__class__ is bool
        assert r.completion_time is None or not math.isnan(r.completion_time)


# -- exactness -------------------------------------------------------------------


def test_lab_world_log_reads_back_what_was_logged(captured):
    runner = _world("lab", 65, 20, 5).build()
    runner.run()
    log = runner.server.access_log
    assert len(captured[log]) > 100
    assert log.records == captured[log]
    assert len(log) == len(captured[log])
    assert runner.combined_access_log().records == captured[log]
    _assert_read_types(log.records)
    # the selections and analyses agree with the captured records
    first, last = captured[log][0].arrival_time, captured[log][-1].arrival_time
    start, end = first + (last - first) / 3, first + 2 * (last - first) / 3
    window = [r for r in captured[log] if start <= r.arrival_time < end]
    assert log.in_window(start, end) == window
    assert log.mfc_records() == [r for r in captured[log] if r.is_mfc]
    assert log.background_records() == [r for r in captured[log] if not r.is_mfc]
    background = [r for r in window if not r.is_mfc]
    assert log.background_rate(start, end) == len(background) / (end - start)
    assert log.mfc_traffic_share(start, end) == (len(window) - len(background)) / len(window)


def test_cluster_combined_log_merges_every_box_exactly(captured):
    runner = _world("qtp", 65, 30, 10, crowd_mode="cohort").build()
    runner.run()
    assert len(runner.servers) == 16
    expected = []
    for server in runner.servers:
        log = server.access_log
        assert log.records == captured.get(log, [])
        assert len(log) == len(captured.get(log, []))
        expected.extend(captured.get(log, []))
    assert len(expected) > 1000
    expected.sort(key=lambda r: (r.arrival_time, r.request_id))
    merged = runner.combined_access_log()
    assert merged.records == expected
    assert len(merged) == len(expected)
    _assert_read_types(merged.records)


def test_records_is_a_fresh_list_and_keeps_a_missing_completion():
    log = AccessLog()
    request = HTTPRequest(client_id="c1", method=Method.POST, path="/up", is_mfc=True)
    log.log(request, arrival_time=1.5, status=Status.RESET, bytes_sent=0.0)
    records = log.records
    records.clear()
    (record,) = log.records
    assert record == LogRecord(
        1.5, "c1", Method.POST, "/up", Status.RESET, 0.0, None, True, request.request_id
    )


# -- footprint ---------------------------------------------------------------------


def test_log_retains_at_most_80_bytes_per_record():
    n = 10_000
    # shared strings and a pool of requests, as a world has; every float
    # is distinct so that a boxed float column would show
    requests = [
        HTTPRequest(client_id=f"c{i:03d}", method=Method.GET, path="/q", is_mfc=i % 2 == 0)
        for i in range(50)
    ]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        log = AccessLog()
        for i in range(n):
            t = i * 0.001 + 0.5
            log.log(
                requests[i % 50],
                arrival_time=t,
                status=Status.OK,
                bytes_sent=1000.0 + i,
                completion_time=t + 0.25,
            )
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(log) == n
    assert retained / n <= 80, f"{retained / n:.0f} B per record"


def test_built_cohort_world_is_small_and_freed_by_refcount():
    """A 600-client cohort world carries three per-member random streams
    per client; as full ``random.Random`` objects they would be 5 MiB of
    a 6 MiB build."""
    spec = _world("qtp", 600, 600, 60, crowd_mode="cohort", seed=0)
    spec.build()  # warm the per-site caches, which outlive any world
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        runner = spec.build()
        built = tracemalloc.get_traced_memory()[0] - before
        del runner
        # only allocator free lists may keep anything
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert built <= 2 * 2**20, f"{built / 2**20:.2f} MiB"
    assert left <= built / 10, f"{left / 2**10:.0f} KiB of {built / 2**10:.0f} KiB kept"


# -- reports -----------------------------------------------------------------------


def test_slotted_client_report_pickles_and_copies():
    report = ClientReport("pl001", Status.CLIENT_TIMEOUT, 0.0, 10.0, 9.5)
    assert not hasattr(report, "__dict__")
    assert pickle.loads(pickle.dumps(report)) == report
    assert copy.deepcopy(report) == report
    assert dataclasses.asdict(report)["normalized_s"] == 9.5
