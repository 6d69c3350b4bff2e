"""Tests for SyntheticServer, LoadBalancedCluster, ResourceMonitor,
AccessLog analyses and the scenario presets."""

import pytest

from repro.content.site import minimal_site
from repro.net.topology import ClientSpec, Topology, TopologySpec
from repro.server import (
    AccessLog,
    LoadBalancedCluster,
    ResourceMonitor,
    SimWebServer,
    SyntheticServer,
)
from repro.server.http import HTTPRequest, Method, Status
from repro.server.presets import (
    all_cooperating_scenarios,
    lab_validation_server,
    qtnp_server,
    qtp_cluster,
    univ2_server,
    univ3_server,
)
from repro.server.resources import ServerSpec
from repro.server.synthetic import exponential_model, linear_model, step_model
from repro.sim import Simulator

from tests.server.conftest import build_world


# -- synthetic models --------------------------------------------------------------


def test_linear_model_zero_for_single_request():
    model = linear_model(0.01)
    assert model(1) == 0.0
    assert model(11) == pytest.approx(0.1)


def test_exponential_model_monotone():
    model = exponential_model(0.001, 0.1)
    values = [model(n) for n in range(1, 60)]
    assert values[0] == 0.0
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_step_model_cliff():
    model = step_model(threshold=10, low_s=0.0, high_s=1.0)
    assert model(9) == 0.0 and model(10) == 1.0


def test_model_validation():
    with pytest.raises(ValueError):
        linear_model(-1)
    with pytest.raises(ValueError):
        exponential_model(-1, 0.1)
    with pytest.raises(ValueError):
        step_model(0, 0, 1)


def make_synth(model, n_clients=10):
    sim = Simulator()
    topo = Topology(
        sim,
        TopologySpec(
            server_access_bps=1e9,
            clients=[
                ClientSpec(f"c{i}", 0.05, 0.02, 1e9, jitter=0.0)
                for i in range(n_clients)
            ],
        ),
    )
    server = SyntheticServer(sim, model, topo.network, topo.server_access)
    return sim, topo, server


def test_synthetic_server_applies_model_per_pending():
    sim, topo, server = make_synth(linear_model(0.1))
    durations = {}

    def issue(client):
        req = HTTPRequest(Method.GET, "/any", client.client_id)
        resp = yield server.submit(req, client, 0.05)
        durations[client.client_id] = resp.server_side_duration

    for c in topo.clients[:5]:
        sim.process(issue(c))
    sim.run()
    # 5 simultaneous arrivals: the last to enter sees pending=5
    assert max(durations.values()) >= 0.1 * 4
    assert server.pending_requests == 0
    assert len(server.access_log) == 5


def test_synthetic_server_single_request_fast():
    sim, topo, server = make_synth(exponential_model(0.005, 0.2))
    done = []

    def issue(client):
        req = HTTPRequest(Method.GET, "/any", client.client_id)
        resp = yield server.submit(req, client, 0.05)
        done.append(resp.server_side_duration)

    sim.process(issue(topo.clients[0]))
    sim.run()
    assert done[0] < 0.05


# -- cluster --------------------------------------------------------------------


def make_cluster(n_servers=4, policy="least_connections", n_clients=8):
    sim = Simulator()
    topo = Topology(
        sim,
        TopologySpec(
            server_access_bps=1e9,
            clients=[
                ClientSpec(f"c{i}", 0.05, 0.02, 1e9, jitter=0.0)
                for i in range(n_clients)
            ],
        ),
    )
    servers = [
        SimWebServer(
            sim,
            ServerSpec(name=f"s{i}", head_cpu_s=0.05),
            minimal_site(),
            topo.network,
            topo.server_access,
        )
        for i in range(n_servers)
    ]
    return sim, topo, LoadBalancedCluster(sim, servers, policy=policy)


def test_cluster_spreads_load_least_connections():
    sim, topo, cluster = make_cluster(n_servers=4, n_clients=8)

    def issue(client):
        req = HTTPRequest(Method.HEAD, "/index.html", client.client_id)
        yield cluster.submit(req, client, 0.05)

    for c in topo.clients:
        sim.process(issue(c))
    sim.run()
    per_server = [len(s.access_log) for s in cluster.servers]
    assert per_server == [2, 2, 2, 2]


def test_cluster_round_robin_cycles():
    sim, topo, cluster = make_cluster(policy="round_robin", n_clients=8)

    def issue(client):
        req = HTTPRequest(Method.HEAD, "/index.html", client.client_id)
        yield cluster.submit(req, client, 0.05)

    for c in topo.clients:
        sim.process(issue(c))
    sim.run()
    assert [len(s.access_log) for s in cluster.servers] == [2, 2, 2, 2]


def test_cluster_combined_log_sorted():
    sim, topo, cluster = make_cluster(n_clients=6)

    def issue(client, delay):
        yield sim.timeout(delay)
        req = HTTPRequest(Method.HEAD, "/index.html", client.client_id)
        yield cluster.submit(req, client, 0.05)

    for i, c in enumerate(topo.clients[:6]):
        sim.process(issue(c, delay=0.01 * (5 - i)))
    sim.run()
    merged = cluster.combined_log()
    times = [r.arrival_time for r in merged.records]
    assert times == sorted(times)
    assert len(merged) == 6


def test_cluster_validation():
    sim = Simulator()
    with pytest.raises(Exception):
        LoadBalancedCluster(sim, [])
    sim2, topo, cluster = make_cluster()
    with pytest.raises(ValueError):
        LoadBalancedCluster(sim2, cluster.servers, policy="random")


# -- monitor ---------------------------------------------------------------------


def test_monitor_samples_all_probes():
    sim, topo, server = build_world()
    monitor = ResourceMonitor(sim, server, interval_s=0.5)
    monitor.start()

    def issue(client):
        req = HTTPRequest(Method.GET, "/big.tar.gz", client.client_id)
        yield server.submit(req, client, 0.05)

    for c in topo.clients:
        sim.process(issue(c))
    sim.run(until=5.0)
    monitor.stop()
    sim.run()
    for probe in ("cpu_util", "memory_bytes", "disk_util", "network_Bps", "pending"):
        assert len(monitor.trace.probe(probe)) >= 9


def test_monitor_network_probe_sees_transfer():
    sim, topo, server = build_world(server_access_bps=1e6)
    monitor = ResourceMonitor(sim, server, interval_s=0.1)
    monitor.start()

    def issue(client):
        req = HTTPRequest(Method.GET, "/big.tar.gz", client.client_id)
        yield server.submit(req, client, 0.05)

    sim.process(issue(topo.clients[0]))
    sim.run(until=2.0)
    assert monitor.peak("network_Bps") > 1e5


def test_monitor_stop_from_within_sample_sticks():
    """stop() called by code running inside sample() must end the
    cycle — _tick may not silently re-arm afterwards."""
    sim, topo, server = build_world()
    monitor = ResourceMonitor(sim, server, interval_s=1.0)
    original_sample = monitor.sample

    def stopping_sample():
        original_sample()
        if sim.now >= 2.0:
            monitor.stop()

    monitor.sample = stopping_sample
    monitor.start()
    sim.run(until=10.0)
    assert len(monitor.trace.probe("pending")) == 2  # t=1 and t=2, then stopped


def test_monitor_stop_start_cycle_resumes_sampling():
    sim, topo, server = build_world()
    monitor = ResourceMonitor(sim, server, interval_s=1.0)
    monitor.start()
    sim.run(until=2.5)
    monitor.stop()
    sim.run(until=5.5)
    monitor.start()
    sim.run(until=7.5)
    monitor.stop()
    sim.run()
    # samples at t=1,2 then t=6.5,7.5 (restart re-bases the interval)
    assert len(monitor.trace.probe("pending")) == 4


def test_monitor_start_idempotent_and_mean():
    sim, topo, server = build_world()
    monitor = ResourceMonitor(sim, server, interval_s=1.0)
    monitor.start()
    monitor.start()
    sim.run(until=3.0)
    assert monitor.mean("pending") == 0.0
    assert monitor.peak("nonexistent") == 0.0


def test_monitor_validation():
    sim, topo, server = build_world()
    with pytest.raises(ValueError):
        ResourceMonitor(sim, server, interval_s=0)


# -- access log analyses ------------------------------------------------------------


def make_log_with(times_mfc, times_bg):
    log = AccessLog()
    for i, t in enumerate(times_mfc):
        req = HTTPRequest(Method.GET, "/x", f"m{i}", is_mfc=True)
        log.log(req, arrival_time=t, status=Status.OK, bytes_sent=10)
    for i, t in enumerate(times_bg):
        req = HTTPRequest(Method.GET, "/x", f"b{i}", is_mfc=False)
        log.log(req, arrival_time=t, status=Status.OK, bytes_sent=10)
    return log


def test_spread_middle_fraction():
    # 10 arrivals spread over 9s, outliers at both ends
    times = [0.0] + [4.0 + 0.1 * i for i in range(8)] + [9.0]
    log = make_log_with(times, [])
    spread = log.spread_middle_fraction(log.records, fraction=0.8)
    assert spread == pytest.approx(0.7, abs=0.01)


def test_spread_of_single_record_is_zero():
    log = make_log_with([1.0], [])
    assert log.spread_middle_fraction(log.records) == 0.0


def test_background_rate_and_share():
    log = make_log_with([1.0, 2.0], [0.5, 1.5, 2.5, 3.5])
    assert log.background_rate(0.0, 4.0) == pytest.approx(1.0)
    assert log.mfc_traffic_share(0.0, 4.0) == pytest.approx(2 / 6)


def test_window_filters():
    log = make_log_with([1.0, 5.0], [2.0])
    window = log.in_window(0.0, 3.0)
    assert len(window) == 2
    assert len(log.mfc_records(window)) == 1
    assert len(log.background_records()) == 1


def test_arrival_offsets():
    log = make_log_with([3.0, 1.0, 2.0], [])
    assert log.arrival_offsets(log.records) == [0.0, 1.0, 2.0]


def test_log_records_are_immutable_and_keep_their_fields():
    log = make_log_with([1.0], [2.0])
    record = log.records[0]
    assert type(record)._fields == (
        "arrival_time", "client_id", "method", "path", "status",
        "bytes_sent", "completion_time", "is_mfc", "request_id",
    )
    assert record.arrival_time == 1.0 and record.is_mfc
    with pytest.raises(AttributeError):
        record.arrival_time = 0.0  # type: ignore[misc]


def test_log_validation():
    log = make_log_with([1.0], [])
    with pytest.raises(ValueError):
        log.spread_middle_fraction(log.records, fraction=0.0)
    with pytest.raises(ValueError):
        log.background_rate(2.0, 1.0)


# -- presets ---------------------------------------------------------------------


def test_all_presets_build_valid_specs():
    for scenario in all_cooperating_scenarios():
        scenario.server_spec.validate()
        assert len(scenario.site) >= 3
        assert scenario.server_access_bps > 0


def test_lab_preset_backends():
    assert lab_validation_server("fastcgi").server_spec.backend.kind == "fastcgi"
    assert lab_validation_server().server_spec.backend.kind == "mongrel"


def test_qtnp_has_contention_point():
    assert qtnp_server().server_spec.db.contention_point_s > 0


def test_qtp_is_a_16_box_cluster():
    assert qtp_cluster().n_servers == 16


def test_univ2_has_thrash_artifact():
    assert univ2_server().server_spec.accept_thrash_threshold is not None


def test_univ3_has_no_query_cache():
    assert univ3_server().server_spec.db.query_cache_bytes == 0


def test_scenario_with_background():
    s = univ3_server().with_background(12.5)
    assert s.background_rps == 12.5
