"""Tests for latency models, the TCP model and the control channel."""

import random
import statistics

import pytest

from repro.net import ControlChannel, Network, StationaryJitterLatency, TcpModel
from repro.net.tcp import kbps, kib, mbps, mib, seconds_per_byte
from repro.sim import Simulator


# -- latency ------------------------------------------------------------------


def test_zero_jitter_is_deterministic():
    lat = StationaryJitterLatency(0.080, jitter=0.0)
    assert all(lat.sample_rtt() == 0.080 for _ in range(10))


def test_jitter_is_mean_preserving():
    lat = StationaryJitterLatency(0.100, jitter=0.2, rng=random.Random(1))
    samples = [lat.sample_rtt() for _ in range(20000)]
    assert statistics.mean(samples) == pytest.approx(0.100, rel=0.02)
    assert all(s > 0 for s in samples)


def test_spikes_multiply_rtt():
    lat = StationaryJitterLatency(
        0.1, jitter=0.0, spike_prob=0.5, spike_factor=4.0, rng=random.Random(2)
    )
    samples = [lat.sample_rtt() for _ in range(1000)]
    assert set(round(s, 6) for s in samples) == {0.1, 0.4}


def test_one_way_is_half_rtt():
    lat = StationaryJitterLatency(0.080, jitter=0.0)
    assert lat.sample_one_way() == pytest.approx(0.040)


def test_latency_validation():
    with pytest.raises(ValueError):
        StationaryJitterLatency(0.0)
    with pytest.raises(ValueError):
        StationaryJitterLatency(0.1, jitter=-1)
    with pytest.raises(ValueError):
        StationaryJitterLatency(0.1, spike_prob=1.5)


# -- tcp ------------------------------------------------------------------------


def test_handshake_is_one_rtt():
    assert TcpModel().handshake_delay(0.08) == pytest.approx(0.08)


def test_small_object_never_leaves_slow_start():
    tcp = TcpModel()
    plan = tcp.plan(size_bytes=5000.0, rtt=0.1, path_rate_bps=mbps(100))
    assert plan.bulk_bytes == 0.0
    assert plan.bytes_in_slow_start == 5000.0


def test_large_object_exits_slow_start():
    tcp = TcpModel()
    plan = tcp.plan(size_bytes=kib(100), rtt=0.05, path_rate_bps=mbps(10))
    assert plan.bulk_bytes > 0
    assert plan.rounds >= 1


def test_paper_100kb_bound_exits_slow_start_on_typical_path():
    """The paper's rationale for the 100 KB Large Object lower bound."""
    tcp = TcpModel()
    # typical 2007 wide-area path: 50 ms RTT, ~10 Mbps bottleneck
    threshold = tcp.minimum_large_object_bytes(rtt=0.05, path_rate_bps=mbps(10))
    assert threshold < kib(100)


def test_estimate_is_max_of_latency_and_bandwidth_bound():
    tcp = TcpModel()
    rtt = 0.1
    size = 500_000.0
    # slow path: bandwidth-bound
    assert tcp.estimate_transfer_time(size, rtt, 1e5) == pytest.approx(5.0)
    # fast path: latency-bound (the slow-start floor)
    floor = tcp.latency_floor_s(size, rtt)
    assert tcp.estimate_transfer_time(size, rtt, 1e9) == pytest.approx(floor)
    with pytest.raises(ValueError):
        tcp.estimate_transfer_time(size, rtt, 0)


def test_latency_floor_shapes():
    tcp = TcpModel()
    # sub-window object: one half-RTT
    assert tcp.latency_floor_s(1000.0, 0.1) == pytest.approx(0.05)
    # zero bytes: free
    assert tcp.latency_floor_s(0.0, 0.1) == 0.0
    # floor grows with size (more doubling rounds)
    assert tcp.latency_floor_s(1e6, 0.1) > tcp.latency_floor_s(1e5, 0.1)


def test_latency_floor_memo_matches_the_closed_form():
    # the per-size factor is cached: every size and RTT must still get
    # exactly (rounds - 0.5) * rtt, whatever was asked before
    tcp = TcpModel(mss_bytes=1000, init_cwnd_segments=1, max_slow_start_rounds=5)
    sizes = (1.0, 1000.0, 1000.5, 3000.0, 7000.0, 31_000.0, 1e9)
    rounds = (1, 1, 2, 2, 3, 5, 5)
    for rtt in (0.1, 0.035, 0.0):
        for size, r in zip(sizes, rounds):
            assert tcp.latency_floor_s(size, rtt) == max(r - 0.5, 0.5) * rtt
    assert tcp.latency_floor_s(0.0, 0.1) == 0.0
    assert tcp.latency_floor_s(-5.0, 0.1) == 0.0


def test_download_process_moves_all_bytes():
    sim = Simulator()
    net = Network(sim)
    link = net.add_link("l", 10_000.0)
    tcp = TcpModel()

    def body():
        got = yield from tcp.download(sim, net, [link], 50_000.0, rtt=0.05)
        return got

    proc = sim.process(body())
    assert sim.run_until_complete(proc) == 50_000.0
    assert link.bytes_delivered == pytest.approx(50_000.0)


def test_download_slower_under_contention():
    def timed_download(n_competitors):
        sim = Simulator()
        net = Network(sim)
        server = net.add_link("server", 100_000.0)
        tcp = TcpModel()
        for i in range(n_competitors):
            acc = net.add_link(f"bg{i}", 1e9)
            sim.process(tcp.download(sim, net, [server, acc], 500_000.0, 0.05))
        acc = net.add_link("probe", 1e9)
        probe = sim.process(tcp.download(sim, net, [server, acc], 200_000.0, 0.05))
        sim.run_until_complete(probe)
        return sim.now

    assert timed_download(8) > timed_download(0)


def test_tcp_validation():
    with pytest.raises(ValueError):
        TcpModel(mss_bytes=0)
    with pytest.raises(ValueError):
        seconds_per_byte(0)


def test_unit_helpers():
    assert mbps(8) == 1e6
    assert kbps(8) == 1e3
    assert kib(1) == 1024
    assert mib(1) == 1024 * 1024


# -- control channel ----------------------------------------------------------


def test_control_send_delivers_after_one_way_delay():
    sim = Simulator()
    chan = ControlChannel(sim)
    lat = StationaryJitterLatency(0.080, jitter=0.0)
    got = []
    chan.send(lat, lambda p: got.append((p, sim.now)), payload="go")
    sim.run()
    assert got == [("go", 0.040)]


def test_control_extra_delay():
    sim = Simulator()
    chan = ControlChannel(sim)
    lat = StationaryJitterLatency(0.080, jitter=0.0)
    got = []
    chan.send(lat, lambda p: got.append(sim.now), payload=None, extra_delay=1.0)
    sim.run()
    assert got == [pytest.approx(1.040)]


def test_control_loss_drops_without_retransmit():
    sim = Simulator()
    chan = ControlChannel(sim, rng=random.Random(3), loss_prob=0.5)
    lat = StationaryJitterLatency(0.010, jitter=0.0)
    delivered = []
    for i in range(400):
        chan.send(lat, lambda p: delivered.append(p), payload=i)
    sim.run()
    assert 120 < len(delivered) < 280  # ~50% loss
    assert chan.lost == 400 - len(delivered)
    assert chan.loss_rate == pytest.approx(chan.lost / 400)


def test_ping_round_trip():
    sim = Simulator()
    chan = ControlChannel(sim)
    lat = StationaryJitterLatency(0.120, jitter=0.0)
    rtts = []
    chan.ping(lat, rtts.append)
    sim.run()
    assert rtts == [pytest.approx(0.120)]
    assert sim.now == pytest.approx(0.120)


def test_control_loss_prob_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        ControlChannel(sim, loss_prob=1.0)
