"""Tests for the full web-server request pipeline."""

import pytest

from repro.content.objects import ContentType, WebObject
from repro.content.site import SiteContent, minimal_site
from repro.server.http import HTTPRequest, Method, Status, HEADER_BYTES
from repro.server.resources import MIB, ServerSpec
from repro.server.backends import BackendSpec

from tests.server.conftest import build_world, fetch


def test_head_request_returns_header_bytes(world):
    sim, topo, server = world
    resp = fetch(sim, server, topo.clients[0], "/index.html", Method.HEAD)
    assert resp.status is Status.OK
    assert resp.bytes_transferred == HEADER_BYTES
    assert resp.server_side_duration < 0.1


def test_unknown_path_404(world):
    sim, topo, server = world
    resp = fetch(sim, server, topo.clients[0], "/ghost.html")
    assert resp.status is Status.NOT_FOUND


def test_static_get_transfers_object_bytes(world):
    sim, topo, server = world
    resp = fetch(sim, server, topo.clients[0], "/big.tar.gz")
    assert resp.status is Status.OK
    assert resp.bytes_transferred == pytest.approx(150_000.0)


def test_object_cache_hit_skips_disk():
    sim, topo, server = build_world()
    c = topo.clients[0]
    fetch(sim, server, c, "/big.tar.gz")
    disk_after_first = server.resources.disk.busy_integral()
    assert disk_after_first > 0
    fetch(sim, server, c, "/big.tar.gz")
    assert server.resources.disk.busy_integral() == pytest.approx(disk_after_first)
    assert server.object_cache.hits == 1


def test_query_goes_through_database(world):
    sim, topo, server = world
    resp = fetch(sim, server, topo.clients[0], "/cgi-bin/q?x=1")
    assert resp.status is Status.OK
    assert server.database.queries_executed == 1


def test_query_cache_speeds_up_repeat(world):
    sim, topo, server = world
    first = fetch(sim, server, topo.clients[0], "/cgi-bin/q?x=1")
    second = fetch(sim, server, topo.clients[1], "/cgi-bin/q?x=1")
    assert second.server_side_duration < first.server_side_duration


def test_worker_pool_serializes():
    spec = ServerSpec(max_workers=1, head_cpu_s=0.1)
    sim, topo, server = build_world(spec=spec)
    done = []

    def issue(client):
        req = HTTPRequest(Method.HEAD, "/index.html", client.client_id)
        resp = yield server.submit(req, client, 0.05)
        done.append((client.client_id, sim.now))

    for c in topo.clients[:2]:
        sim.process(issue(c))
    sim.run()
    t0, t1 = done[0][1], done[1][1]
    # second request had to wait ~one full service time for the worker
    assert t1 - t0 > 0.09


def test_listen_backlog_refuses_with_503():
    spec = ServerSpec(max_workers=1, listen_backlog=2, head_cpu_s=1.0)
    sim, topo, server = build_world(spec=spec, n_clients=6)
    responses = []

    def issue(client):
        req = HTTPRequest(Method.HEAD, "/index.html", client.client_id)
        resp = yield server.submit(req, client, 0.05)
        responses.append(resp)

    for c in topo.clients:
        sim.process(issue(c))
    sim.run()
    statuses = sorted(r.status for r in responses)
    assert statuses.count(Status.SERVICE_UNAVAILABLE) == 3  # 1 running + 2 queued
    assert server.refused_requests == 3


def test_accept_thrash_engages_above_threshold():
    def run(n_clients, threshold):
        spec = ServerSpec(
            max_workers=500,
            accept_thrash_threshold=threshold,
            accept_thrash_s=0.2,
            head_cpu_s=0.0001,
        )
        sim, topo, server = build_world(spec=spec, n_clients=n_clients)
        durations = []

        def issue(client):
            req = HTTPRequest(Method.HEAD, "/index.html", client.client_id)
            resp = yield server.submit(req, client, 0.05)
            durations.append(resp.server_side_duration)

        for c in topo.clients:
            sim.process(issue(c))
        sim.run()
        return sorted(durations)

    below = run(10, threshold=20)
    above = run(40, threshold=20)
    # below the burst threshold nobody pays; above it the stall is
    # uniform — even the fastest response carries the ~0.2 s penalty
    assert below[len(below) // 2] < 0.1
    assert above[0] > below[len(below) // 2] + 0.15
    assert above[len(above) // 2] > 0.2


def test_thrash_is_sticky_until_burst_drains():
    spec = ServerSpec(
        accept_thrash_threshold=5, accept_thrash_s=0.1, head_cpu_s=0.0001
    )
    sim, topo, server = build_world(spec=spec, n_clients=8)

    def issue(client):
        req = HTTPRequest(Method.HEAD, "/index.html", client.client_id)
        yield server.submit(req, client, 0.05)

    for c in topo.clients:
        sim.process(issue(c))
    sim.run()
    assert server._thrashing  # burst of 8 > 5 and nothing has drained it
    # a lone request long after the burst clears the window
    def late(client):
        yield sim.timeout(10.0)
        req = HTTPRequest(Method.HEAD, "/index.html", client.client_id)
        yield server.submit(req, client, 0.05)

    sim.process(late(topo.clients[0]))
    sim.run()
    assert not server._thrashing


def test_memory_accounting_per_request():
    spec = ServerSpec(per_request_memory_bytes=10 * MIB, head_cpu_s=0.5)
    sim, topo, server = build_world(spec=spec, n_clients=4)

    def issue(client):
        req = HTTPRequest(Method.HEAD, "/index.html", client.client_id)
        yield server.submit(req, client, 0.05)

    for c in topo.clients:
        sim.process(issue(c))
    sim.run(until=0.1)
    # 4 in-flight requests → 40 MiB above baseline (single core: all
    # queued requests hold a worker+memory since workers are plentiful)
    assert server.resources.memory.level == pytest.approx(
        spec.baseline_memory_bytes + 4 * 10 * MIB
    )
    sim.run()
    assert server.resources.memory.level == pytest.approx(spec.baseline_memory_bytes)


@pytest.mark.parametrize("weight", [1, 3])
def test_memory_level_is_restored_after_requests_complete(weight):
    # HEAD, static GET (disk, then cache), query and 404 each claim and
    # release request memory; a cohort request claims its whole weight
    spec = ServerSpec(per_request_memory_bytes=10 * MIB)
    sim, topo, server = build_world(spec=spec)
    paths = [
        (Method.HEAD, "/index.html"),
        (Method.GET, "/big.tar.gz"),
        (Method.GET, "/big.tar.gz"),
        (Method.GET, "/cgi-bin/q?x=1"),
        (Method.GET, "/ghost.html"),
    ]
    procs = []
    for client, (method, path) in zip(topo.clients * 2, paths):
        req = HTTPRequest(method, path, client.client_id)
        procs.append(server.submit(req, client, 0.05, weight=weight))
    sim.run()
    assert all(proc.processed and proc.ok for proc in procs)
    memory = server.resources.memory
    assert memory.level == spec.baseline_memory_bytes
    assert memory.peak_level >= spec.baseline_memory_bytes + weight * 10 * MIB


def test_access_log_records_arrivals_and_flags():
    sim, topo, server = build_world()
    c = topo.clients[0]
    req = HTTPRequest(Method.GET, "/index.html", c.client_id, is_mfc=True)
    sim.run_until_complete(server.submit(req, c, 0.05))
    assert len(server.access_log) == 1
    record = server.access_log.records[0]
    assert record.is_mfc and record.status is Status.OK
    assert record.arrival_time == 0.0
    assert record.completion_time > 0


def test_pending_counter_returns_to_zero(world):
    sim, topo, server = world
    fetch(sim, server, topo.clients[0], "/index.html")
    assert server.pending_requests == 0


# -- write path (POST / the Upload stage) ---------------------------------------


def test_post_to_dynamic_endpoint_runs_backend_and_journals_disk(world):
    sim, topo, server = world
    c = topo.clients[0]
    req = HTTPRequest(
        Method.POST, "/cgi-bin/q?x=1", c.client_id, body_bytes=64 * 1024.0
    )
    resp = sim.run_until_complete(server.submit(req, c, 0.05))
    assert resp.status is Status.OK
    assert resp.bytes_transferred == HEADER_BYTES  # ack only
    assert server.database.queries_executed == 1
    # the body journal hit the disk
    assert server.resources.disk.busy_integral() > 0


def test_post_to_static_object_is_method_not_allowed(world):
    sim, topo, server = world
    c = topo.clients[0]
    req = HTTPRequest(Method.POST, "/big.tar.gz", c.client_id, body_bytes=1024.0)
    resp = sim.run_until_complete(server.submit(req, c, 0.05))
    assert resp.status is Status.METHOD_NOT_ALLOWED
    assert server.database.queries_executed == 0


def test_post_body_upload_pays_transfer_time(world):
    sim, topo, server = world
    small = HTTPRequest(Method.POST, "/cgi-bin/q?x=1", "c0", body_bytes=1024.0)
    large = HTTPRequest(
        Method.POST, "/cgi-bin/q?x=1", "c1", body_bytes=4_000_000.0
    )
    t_small = sim.run_until_complete(
        server.submit(small, topo.clients[0], 0.05)
    ).server_side_duration
    t_large = sim.run_until_complete(
        server.submit(large, topo.clients[1], 0.05)
    ).server_side_duration
    # the 4 MB body must cross the network and the disk journal
    assert t_large > t_small + 0.01


def test_post_never_populates_response_cache():
    spec = ServerSpec(response_cache_bytes=64 * MIB)
    sim, topo, server = build_world(spec=spec)
    c = topo.clients[0]
    req = HTTPRequest(Method.POST, "/cgi-bin/q?x=1", c.client_id, body_bytes=100.0)
    sim.run_until_complete(server.submit(req, c, 0.05))
    # a write is a side effect, not a cacheable response
    assert not server.response_cache.lookup("/cgi-bin/q?x=1")


# -- cache busting (the CacheBust stage) ----------------------------------------


def test_cache_bust_resolves_underlying_object(world):
    sim, topo, server = world
    resp = fetch(sim, server, topo.clients[0], "/big.tar.gz?mfc-cb=0")
    assert resp.status is Status.OK
    assert resp.bytes_transferred == pytest.approx(150_000.0)


def test_cache_bust_suffix_on_unknown_path_is_404(world):
    sim, topo, server = world
    resp = fetch(sim, server, topo.clients[0], "/ghost.bin?mfc-cb=3")
    assert resp.status is Status.NOT_FOUND


def test_cache_bust_always_hits_disk():
    sim, topo, server = build_world()
    c = topo.clients[0]
    fetch(sim, server, c, "/big.tar.gz?mfc-cb=0")
    first = server.resources.disk.busy_integral()
    assert first > 0
    fetch(sim, server, c, "/big.tar.gz?mfc-cb=1")
    second = server.resources.disk.busy_integral()
    assert second > first
    # and it never warmed the object cache for the plain path either
    fetch(sim, server, c, "/big.tar.gz")
    assert server.resources.disk.busy_integral() > second
    assert server.object_cache.hits == 0


def test_plain_requests_unaffected_by_cache_busting(world):
    sim, topo, server = world
    c = topo.clients[0]
    fetch(sim, server, c, "/big.tar.gz")            # warms the cache
    busy = server.resources.disk.busy_integral()
    fetch(sim, server, c, "/big.tar.gz?mfc-cb=7")   # busts around it
    fetch(sim, server, c, "/big.tar.gz")            # cache hit again
    assert server.object_cache.hits == 1
    assert server.resources.disk.busy_integral() > busy


def test_large_object_contention_raises_response_time():
    """The Figure 5 mechanism: same object, response time rises with
    crowd size, CPU and disk stay quiet."""
    site = minimal_site(large_object_bytes=100 * 1024)
    spec = ServerSpec(request_parse_cpu_s=0.0002)

    def run(n):
        # LAN clients (2 ms RTT) like the paper's §3.2 setup, so slow
        # start does not dominate and the access link is the bottleneck
        sim, topo, server = build_world(
            spec=spec, site=site, server_access_bps=12.5e6, n_clients=n, rtt=0.002
        )
        durations = []

        def issue(client):
            req = HTTPRequest(Method.GET, "/big.tar.gz", client.client_id)
            resp = yield server.submit(req, client, 0.002)
            durations.append(resp.server_side_duration)
        # warm the object cache so disk is out of the picture
        fetch(sim, server, topo.clients[0], "/big.tar.gz", rtt=0.002)
        for c in topo.clients:
            sim.process(issue(c))
        sim.run()
        return sorted(durations)[len(durations) // 2], server

    median_small, _ = run(2)
    median_large, server = run(30)
    assert median_large > median_small * 3
    # CPU stayed a minor player: the constraint is the access link
    assert server.resources.cpu.utilization() < 0.15
