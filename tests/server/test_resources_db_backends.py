"""Tests for ServerResources, Database and the dynamic backends."""

import pytest

from repro.content.objects import ContentType, WebObject
from repro.server.backends import BackendSpec, make_backend
from repro.server.database import Database, DatabaseSpec
from repro.server.resources import MIB, ServerResources, ServerSpec
from repro.sim import Simulator


def make_resources(**overrides):
    sim = Simulator()
    defaults = dict(
        name="t",
        ram_bytes=1000 * MIB,
        baseline_memory_bytes=200 * MIB,
        swap_bytes=2000 * MIB,
        swap_slowdown=10.0,
    )
    defaults.update(overrides)
    spec = ServerSpec(**defaults)
    return sim, ServerResources(sim, spec)


def query_obj(rows=10_000, size=500.0, path="/q?x=1", cacheable=True):
    return WebObject(
        path, ContentType.QUERY, size, dynamic=True, db_rows=rows, cacheable=cacheable
    )


# -- ServerSpec / ServerResources ------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        ServerSpec(cpu_cores=0).validate()
    with pytest.raises(ValueError):
        ServerSpec(cpu_speed=0).validate()
    with pytest.raises(ValueError):
        ServerSpec(max_workers=0).validate()
    with pytest.raises(ValueError):
        ServerSpec(accept_thrash_threshold=0).validate()
    with pytest.raises(ValueError):
        ServerSpec(
            baseline_memory_bytes=10e12, ram_bytes=1e9, swap_bytes=1e9
        ).validate()


def test_swap_factor_below_ram_is_one():
    _, res = make_resources()
    assert res.swap_factor() == 1.0


def test_swap_factor_grows_linearly_above_ram():
    _, res = make_resources()
    res.allocate_memory(900 * MIB)  # level 1100, over by 100/1000
    assert res.swap_factor() == pytest.approx(1.0 + 10.0 * 0.1)


def test_allocate_fails_when_swap_exhausted():
    _, res = make_resources()
    assert res.allocate_memory(2700 * MIB)
    assert not res.allocate_memory(200 * MIB)


def test_free_unallocated_raises():
    _, res = make_resources()
    with pytest.raises(RuntimeError):
        res.free_memory(500 * MIB)


def test_failed_free_leaves_memory_untouched():
    # the failed free must not park a withdrawal that a later
    # allocation would silently drain
    _, res = make_resources()
    with pytest.raises(RuntimeError, match="t: freeing unallocated memory"):
        res.free_memory(500 * MIB)
    assert res.memory.level == 200 * MIB
    assert res.allocate_memory(400 * MIB)
    assert res.memory.level == 600 * MIB
    res.free_memory(400 * MIB)
    assert res.memory.level == 200 * MIB


def test_free_memory_schedules_nothing():
    # a release is immediate: it takes no kernel slot
    sim, res = make_resources()
    assert res.allocate_memory(100 * MIB)
    res.free_memory(100 * MIB)
    assert res.memory.level == 200 * MIB
    assert sim.peek() is None


def test_consume_cpu_scales_with_speed():
    sim, res = make_resources(cpu_speed=2.0)

    def body():
        yield from res.consume_cpu(1.0)

    sim.run_until_complete(sim.process(body()))
    assert sim.now == pytest.approx(0.5)


def test_consume_cpu_slows_when_swapping():
    sim, res = make_resources()
    res.allocate_memory(1800 * MIB)  # level=2000, over by 1.0 → factor 11

    def body():
        yield from res.consume_cpu(0.1)

    sim.run_until_complete(sim.process(body()))
    assert sim.now == pytest.approx(1.1)


def test_cpu_cores_parallelize():
    sim, res = make_resources(cpu_cores=2)
    done = []

    def body(tag):
        yield from res.consume_cpu(1.0)
        done.append((tag, sim.now))

    for t in range(2):
        sim.process(body(t))
    sim.run()
    assert [d[1] for d in done] == [1.0, 1.0]


def test_disk_serializes_and_charges_seek():
    sim, res = make_resources(disk_bandwidth_bps=1000.0, disk_seek_s=0.5)
    done = []

    def body(tag):
        yield from res.read_disk(1000.0)
        done.append(sim.now)

    sim.process(body(0))
    sim.process(body(1))
    sim.run()
    assert done == [pytest.approx(1.5), pytest.approx(3.0)]


# -- Database --------------------------------------------------------------------


def test_db_query_cost_is_rows_over_rate():
    sim = Simulator()
    db = Database(sim, DatabaseSpec(row_scan_rate=10_000.0, per_query_overhead_s=0.0,
                                    query_cache_bytes=0.0))

    def body():
        yield from db.execute(query_obj(rows=5_000))

    sim.run_until_complete(sim.process(body()))
    assert sim.now == pytest.approx(0.5)


def test_db_query_cache_hit_is_cheap():
    sim = Simulator()
    db = Database(sim, DatabaseSpec(row_scan_rate=10_000.0, per_query_overhead_s=0.01))
    times = []

    def body():
        yield from db.execute(query_obj(rows=5_000))
        times.append(sim.now)
        yield from db.execute(query_obj(rows=5_000))
        times.append(sim.now)

    sim.run_until_complete(sim.process(body()))
    first = times[0]
    second = times[1] - times[0]
    assert second < first / 100


def test_db_uncacheable_query_never_cached():
    sim = Simulator()
    db = Database(sim, DatabaseSpec(row_scan_rate=10_000.0))
    obj = query_obj(cacheable=False)

    def body():
        yield from db.execute(obj)
        yield from db.execute(obj)

    sim.run_until_complete(sim.process(body()))
    assert db.query_cache.hits == 0


def test_db_connection_pool_limits_parallelism():
    sim = Simulator()
    db = Database(
        sim,
        DatabaseSpec(
            max_connections=1,
            row_scan_rate=10_000.0,
            per_query_overhead_s=0.0,
            query_cache_bytes=0.0,
        ),
    )
    done = []

    def body(i):
        yield from db.execute(query_obj(rows=10_000, path=f"/q?x={i}"))
        done.append(sim.now)

    sim.process(body(0))
    sim.process(body(1))
    sim.run()
    assert done == [pytest.approx(1.0), pytest.approx(2.0)]


def test_db_contention_point_serializes_after_scan():
    sim = Simulator()
    db = Database(
        sim,
        DatabaseSpec(
            max_connections=10,
            row_scan_rate=1e9,
            per_query_overhead_s=0.0,
            contention_point_s=1.0,
            query_cache_bytes=0.0,
        ),
    )
    done = []

    def body(i):
        yield from db.execute(query_obj(path=f"/q?x={i}"))
        done.append(sim.now)

    for i in range(3):
        sim.process(body(i))
    sim.run()
    assert done == [
        pytest.approx(1.0, abs=1e-3),
        pytest.approx(2.0, abs=1e-3),
        pytest.approx(3.0, abs=1e-3),
    ]


def test_db_rejects_static_object():
    sim = Simulator()
    db = Database(sim, DatabaseSpec())
    static = WebObject("/a.html", ContentType.TEXT, 10)

    def body():
        yield from db.execute(static)

    with pytest.raises(ValueError):
        sim.run_until_complete(sim.process(body()))


def test_db_spec_validation():
    for bad in (
        dict(max_connections=0),
        dict(row_scan_rate=0),
        dict(per_query_overhead_s=-1),
        dict(query_cache_bytes=-1),
        dict(contention_point_s=-1),
    ):
        with pytest.raises(ValueError):
            DatabaseSpec(**bad).validate()


# -- backends ---------------------------------------------------------------------


def run_concurrent_queries(backend_kind, n, rows=10_000, process_mb=24.0):
    sim, res = make_resources()
    db = Database(
        sim,
        DatabaseSpec(row_scan_rate=1_000_000.0, query_cache_bytes=0.0),
    )
    spec = BackendSpec(kind=backend_kind, fastcgi_process_bytes=process_mb * MIB)
    backend = make_backend(sim, spec, res, db)
    peak_memory = [res.memory.level]

    def body(i):
        yield from backend.handle(query_obj(rows=rows, path=f"/q?u={i}"))
        peak_memory.append(res.memory.level)

    procs = [sim.process(body(i)) for i in range(n)]
    sim.run()
    assert all(p.processed for p in procs)
    return sim, res, backend


def test_fastcgi_tracks_process_count():
    _, _, backend = run_concurrent_queries("fastcgi", 10)
    assert backend.peak_processes == 10
    assert backend.active_processes == 0


def test_fastcgi_memory_returns_to_baseline():
    _, res, _ = run_concurrent_queries("fastcgi", 10)
    assert res.memory.level == pytest.approx(200 * MIB)


def test_fastcgi_swaps_under_many_forks():
    # 50 forks x 24 MB = 1.2 GB on a 1 GB box → swap engaged
    _, res, backend = run_concurrent_queries("fastcgi", 50)
    assert res.memory.peak_level > res.spec.ram_bytes


def test_fastcgi_slower_than_mongrel_at_high_concurrency():
    sim_f, _, _ = run_concurrent_queries("fastcgi", 60)
    sim_m, _, _ = run_concurrent_queries("mongrel", 60)
    assert sim_f.now > sim_m.now * 1.5


def test_mongrel_memory_stays_flat():
    _, res, _ = run_concurrent_queries("mongrel", 60)
    assert res.memory.peak_level == pytest.approx(200 * MIB)


def test_fork_failure_on_memory_exhaustion():
    # enormous per-process image exhausts RAM+swap quickly
    _, _, backend = run_concurrent_queries("fastcgi", 40, process_mb=200.0)
    assert backend.forks_failed > 0


def test_backend_spec_validation():
    with pytest.raises(ValueError):
        make_backend(Simulator(), BackendSpec(kind="cgi"), None, None)
    with pytest.raises(ValueError):
        BackendSpec(mongrel_pool_size=0).validate()
    with pytest.raises(ValueError):
        BackendSpec(fastcgi_process_bytes=0).validate()
