"""Integration tests: MFC client + coordinator against live servers."""

import pytest

from repro.content.site import minimal_site
from repro.core.client import MFCClient, RequestCommand
from repro.core.config import REQUEST_TIMEOUT_S, MFCConfig
from repro.core.coordinator import Coordinator
from repro.core.records import StageOutcome
from repro.core.stages import StageKind
from repro.net.topology import ClientSpec, Topology, TopologySpec
from repro.server.http import Method, Status
from repro.server.presets import Scenario, qtnp_server
from repro.server.resources import ServerSpec
from repro.server.webserver import SimWebServer
from repro.sim import Simulator
from repro.workload.fleet import FleetSpec
from repro.worlds.spec import WorldSpec


def tiny_world(n_clients=4, spec=None, unresponsive=()):
    sim = Simulator()
    topo = Topology(
        sim,
        TopologySpec(
            server_access_bps=1e9,
            clients=[
                ClientSpec(
                    f"c{i}",
                    rtt_to_target=0.040 + 0.01 * i,
                    rtt_to_coord=0.020,
                    access_bps=1e9,
                    jitter=0.0,
                    unresponsive_prob=1.0 if i in unresponsive else 0.0,
                )
                for i in range(n_clients)
            ],
        ),
    )
    server = SimWebServer(
        sim,
        spec if spec is not None else ServerSpec(),
        minimal_site(),
        topo.network,
        topo.server_access,
    )
    config = MFCConfig(min_clients=1, max_crowd=n_clients)
    clients = [
        MFCClient(sim, node, server, topo.control)
        for node in topo.clients
    ]
    return sim, topo, server, clients, config


# -- client primitives -----------------------------------------------------------


def test_client_measures_base_time():
    sim, topo, server, clients, config = tiny_world()
    client = clients[0]
    proc = sim.process(client.measure_base(["/index.html"], Method.HEAD))
    sim.run_until_complete(proc)
    base = client.base_times["/index.html"]
    # ≥ 2 RTT (handshake + response) at 40 ms RTT
    assert 0.06 < base < 0.5


def test_client_measures_target_rtt():
    sim, topo, server, clients, config = tiny_world()
    proc = sim.process(clients[0].measure_target_rtt())
    rtt = sim.run_until_complete(proc)
    assert rtt == pytest.approx(0.040)


def test_client_timeout_records_err():
    slow = ServerSpec(head_cpu_s=60.0)  # server far slower than 10 s
    sim, topo, server, clients, config = tiny_world(spec=slow)
    client = clients[0]
    proc = sim.process(client.measure_base(["/index.html"], Method.HEAD))
    sim.run_until_complete(proc, limit=1e6)
    assert client.base_times["/index.html"] == REQUEST_TIMEOUT_S


def test_client_command_reports_to_sink():
    sim, topo, server, clients, config = tiny_world()
    client = clients[0]
    received = []
    client.report_sink = received.append
    sim.run_until_complete(
        sim.process(client.measure_base(["/index.html"], Method.HEAD))
    )
    client.execute_command(
        RequestCommand(
            epoch_key=("Base", 1),
            path="/index.html",
            method=Method.HEAD,
            n_parallel=1,
        )
    )
    sim.run()
    assert len(received) == 1
    key, report = received[0]
    assert key == ("Base", 1)
    assert report.status is Status.OK
    assert abs(report.normalized_s) < 0.05


def test_client_mfc_mr_parallel_requests():
    sim, topo, server, clients, config = tiny_world()
    client = clients[0]
    received = []
    client.report_sink = received.append
    client.execute_command(
        RequestCommand(
            epoch_key=("Base", 2),
            path="/index.html",
            method=Method.HEAD,
            n_parallel=3,
        )
    )
    sim.run()
    assert len(received) == 3


def test_unresponsive_client_fails_probe():
    sim, topo, server, clients, config = tiny_world(unresponsive=(1,))
    answered = []
    for c in clients:
        c.probe(answered.append)
    sim.run()
    assert "c1" not in answered
    assert len(answered) == 3


# -- coordinator ---------------------------------------------------------------


def run_mfc(runner):
    return runner.run()


def test_coordinator_aborts_below_min_clients():
    runner = WorldSpec(
        scenario=qtnp_server(),
        fleet=FleetSpec(n_clients=30, unresponsive_fraction=0.0),
        config=MFCConfig(min_clients=50),
        seed=3,
    ).build()
    result = runner.run()
    assert result.aborted
    assert "50" in result.abort_reason
    assert not result.stages


def test_coordinator_counts_only_responsive_clients():
    runner = WorldSpec(
        scenario=qtnp_server(),
        fleet=FleetSpec(n_clients=60, unresponsive_fraction=0.5),
        config=MFCConfig(min_clients=50),
        seed=3,
    ).build()
    result = runner.run()
    assert result.aborted  # ~30 live < 50


def test_full_experiment_qtnp_band():
    """The Table 1 shape: Base stops first, bandwidth NoStops."""
    runner = WorldSpec(
        scenario=qtnp_server(),
        fleet=FleetSpec(n_clients=65, unresponsive_fraction=0.05),
        config=MFCConfig(min_clients=50, max_crowd=55),
        seed=1,
    ).build()
    result = runner.run()
    assert not result.aborted
    base = result.stage(StageKind.BASE.value)
    query = result.stage(StageKind.SMALL_QUERY.value)
    large = result.stage(StageKind.LARGE_OBJECT.value)
    assert base.outcome is StageOutcome.STOPPED
    assert 15 <= base.stopping_crowd_size <= 35
    assert query.outcome is StageOutcome.STOPPED
    assert 40 <= query.stopping_crowd_size <= 55
    assert large.outcome is StageOutcome.NO_STOP
    # ordering: request handling is the tightest constraint
    assert base.stopping_crowd_size < query.stopping_crowd_size


def test_epoch_crowds_nondecreasing_until_check():
    runner = WorldSpec(
        scenario=qtnp_server(),
        fleet=FleetSpec(n_clients=65, unresponsive_fraction=0.0),
        config=MFCConfig(min_clients=50, max_crowd=30),
        stages=("Base",),
        seed=2,
    ).build()
    result = runner.run()
    stage = result.stage(StageKind.BASE.value)
    normals = [c for c, _ in stage.crowd_series()]
    assert normals == sorted(normals)


def test_stage_skipped_when_no_large_object():
    scenario = qtnp_server()
    site = minimal_site(large_object_bytes=50_000)  # below the 100 KB bound
    scenario = Scenario(
        name="no-large",
        server_spec=scenario.server_spec,
        site=site,
        server_access_bps=scenario.server_access_bps,
    )
    runner = WorldSpec(
        scenario=scenario,
        fleet=FleetSpec(n_clients=55, unresponsive_fraction=0.0),
        config=MFCConfig(min_clients=50, max_crowd=20),
        seed=1,
    ).build()
    assert all(s.name != StageKind.LARGE_OBJECT.value for s in runner.stages)


def test_mfc_requests_marked_in_access_log():
    runner = WorldSpec(
        scenario=qtnp_server(),
        fleet=FleetSpec(n_clients=55, unresponsive_fraction=0.0),
        config=MFCConfig(min_clients=50, max_crowd=15),
        stages=("Base",),
        seed=1,
    ).build()
    runner.run()
    log = runner.server.access_log
    mfc = log.mfc_records()
    assert len(mfc) > 50  # base measurements + epochs
    # background traffic exists and is separable
    assert len(log.background_records()) >= 0


def test_control_loss_produces_missing_reports():
    runner = WorldSpec(
        scenario=qtnp_server(),
        fleet=FleetSpec(n_clients=70, unresponsive_fraction=0.0),
        config=MFCConfig(min_clients=50, max_crowd=30),
        stages=("Base",),
        control_loss_prob=0.10,
        seed=4,
    ).build()
    result = runner.run()
    stage = result.stage(StageKind.BASE.value)
    assert sum(e.missing_reports for e in stage.epochs) > 0


def test_random_selection_varies_participants():
    runner = WorldSpec(
        scenario=qtnp_server(),
        fleet=FleetSpec(n_clients=60, unresponsive_fraction=0.0),
        config=MFCConfig(min_clients=50, max_crowd=10, check_phase=False),
        stages=("Base",),
        seed=5,
    ).build()
    result = runner.run()
    stage = result.stage(StageKind.BASE.value)
    ids_per_epoch = [
        frozenset(r.client_id for r in e.reports) for e in stage.epochs
    ]
    # two epochs of 5 and 10 out of 60 clients: overwhelmingly distinct
    assert len(set(ids_per_epoch)) == len(ids_per_epoch)
