"""Tests for RNG streams and tracing."""

import random

import pytest

from repro.sim import Probe, RNGRegistry, Simulator, TraceLog
from repro.sim.rng import MAX_FILL, ReplayStream


def test_same_seed_same_stream():
    a = RNGRegistry(7).stream("net.latency")
    b = RNGRegistry(7).stream("net.latency")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_different_names_are_independent():
    reg = RNGRegistry(7)
    s1 = [reg.stream("one").random() for _ in range(5)]
    s2 = [reg.stream("two").random() for _ in range(5)]
    assert s1 != s2


def test_stream_order_does_not_matter():
    r1 = RNGRegistry(3)
    r2 = RNGRegistry(3)
    # create in opposite orders
    a_first = r1.stream("a").random()
    r2.stream("b")
    a_second = r2.stream("a").random()
    assert a_first == a_second


def test_different_seeds_differ():
    assert RNGRegistry(1).stream("x").random() != RNGRegistry(2).stream("x").random()


def test_fork_is_disjoint():
    reg = RNGRegistry(9)
    child = reg.fork("site-17")
    assert reg.stream("x").random() != child.stream("x").random()


def test_fork_deterministic():
    a = RNGRegistry(9).fork("site-17").stream("x").random()
    b = RNGRegistry(9).fork("site-17").stream("x").random()
    assert a == b


# -- replay streams -----------------------------------------------------------------


def _interleaved(rng, n):
    """*n* draws alternating runs of random() and gauss(), with an odd
    run of gauss so a cached second normal crosses refills."""
    out = []
    for i in range(n):
        if i % 7 < 3:
            out.append(rng.gauss(0.0, 1.0))
        else:
            out.append(rng.random())
    return out


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
@pytest.mark.parametrize("chunk", [1, 3, 32])
def test_replay_stream_draws_exactly_what_random_does(seed, chunk):
    # 1200 draws take about 1200 doubles: the first fill, the doubling
    # refills that replay, then refills from the kept generator
    stream = ReplayStream(seed, chunk)
    assert _interleaved(stream, 1200) == _interleaved(random.Random(seed), 1200)
    assert stream._generated > 4 * MAX_FILL


def test_registry_replay_stream_matches_the_full_stream():
    reg = RNGRegistry(11)
    replay = reg.replay_stream("lat.target.pl001", 4)
    assert reg.replay_stream("lat.target.pl001", 4) is replay
    full = RNGRegistry(11).stream("lat.target.pl001")
    assert _interleaved(replay, 300) == _interleaved(full, 300)


@pytest.mark.parametrize(
    "method", ["choice", "sample", "expovariate", "uniform", "getrandbits", "seed", "getstate"]
)
def test_replay_stream_has_no_other_methods(method):
    with pytest.raises(AttributeError):
        getattr(ReplayStream(5, 4), method)


def test_probe_records_with_timestamps():
    sim = Simulator()
    probe = Probe(sim, "rt")
    sim.call_in(1.0, lambda: probe.record(10))
    sim.call_in(2.0, lambda: probe.record(20))
    sim.run()
    assert probe.series() == [(1.0, 10), (2.0, 20)]
    assert probe.values() == [10, 20]
    assert probe.last() == 20
    assert len(probe) == 2


def test_probe_window():
    sim = Simulator()
    probe = Probe(sim, "x")
    for t in (1.0, 2.0, 3.0, 4.0):
        sim.call_in(t, lambda v=t: probe.record(v))
    sim.run()
    assert [s.value for s in probe.window(2.0, 4.0)] == [2.0, 3.0]


def test_probe_last_default():
    sim = Simulator()
    assert Probe(sim, "e").last(default="none") == "none"


def test_tracelog_probe_registry():
    sim = Simulator()
    trace = TraceLog(sim)
    trace.record("cpu", 0.5)
    trace.record("mem", 100)
    trace.record("cpu", 0.7)
    assert trace.names() == ["cpu", "mem"]
    assert "cpu" in trace
    assert trace.probe("cpu").values() == [0.5, 0.7]
    assert len(list(trace)) == 2
