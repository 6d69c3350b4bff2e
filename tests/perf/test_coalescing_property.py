"""Coalescing parity: random event scripts vs the per-event seed network.

The end-of-instant allocation transaction must be *behaviour
preserving* at the network layer, not just for whole MFC worlds: this
suite generates random scripts of transfer starts (single and
same-instant batches), mid-flight aborts and natural completions over
random star-plus-bottleneck topologies, replays each script through

- the coalesced :class:`repro.net.link.Network` (one allocator pass
  per simulated instant, lazy share/ETA heaps), and
- the frozen seed implementation in ``tests/reference/_seed_reference.py``
  (one full recompute per individual event),

and asserts the observable outcomes agree: identical completion
timestamps and final rates (exact float equality — the allocator
arithmetic is bit-compatible), identical abort/completion verdicts,
and per-link delivered-byte totals equal to float accumulation order
(the seed iterates hash-ordered sets where the coalesced network keeps
insertion-ordered dicts, so byte counters may differ by accumulation
rounding only — bounded here at 1e-9 relative).
"""

import random

import pytest
from reference import _seed_reference

from repro.net.link import Network
from repro.sim import Simulator

N_ACCESS = 10


def _make_script(seed):
    """One randomized event script, shared verbatim by both networks.

    Yields ``(time, kind, payload)`` entries; "start" payloads name
    link indices so the script is implementation-agnostic.  Batches
    model synchronized crowds: several starts on one timestamp, which
    is exactly where the coalesced path folds work the per-event seed
    performs N times.
    """
    rng = random.Random(seed)
    script = []
    for _ in range(rng.randint(8, 16)):
        when = round(rng.uniform(0.0, 3.0), 4)
        if rng.random() < 0.4:
            # a synchronized batch of 2-6 same-instant starts
            batch = []
            for _ in range(rng.randint(2, 6)):
                batch.append(_random_flow(rng))
            script.append((when, "batch", batch))
        else:
            script.append((when, "start", _random_flow(rng)))
    for _ in range(rng.randint(2, 5)):
        # abort the k-th oldest active transfer at the given time
        script.append((round(rng.uniform(0.5, 4.0), 4), "abort", rng.randint(0, 6)))
    script.sort(key=lambda entry: entry[0])
    return script


def _random_flow(rng):
    links = [0]  # server link
    if rng.random() < 0.4:
        links.append(1)  # shared mid-path bottleneck
    links.append(2 + rng.randrange(N_ACCESS))  # client access link
    return (links, round(rng.uniform(5e3, 4e5), 2))


def _replay(network_cls, seed):
    """Run the script through one implementation; return observables."""
    rng = random.Random(10_000 + seed)  # topology stream, shared
    sim = Simulator()
    net = network_cls(sim)
    links = [net.add_link("server", rng.uniform(2e6, 2e7))]
    links.append(net.add_link("mid", rng.uniform(1e6, 1e7)))
    for i in range(N_ACCESS):
        links.append(net.add_link(f"acc{i}", rng.uniform(1e5, 1.5e7)))

    transfers = []
    probes = []

    def start(flow):
        path, size = flow
        transfers.append(net.start_transfer([links[i] for i in path], size))

    def abort_kth(k):
        active = [t for t in transfers if t.active]
        if active:
            net.abort(active[k % len(active)])

    for when, kind, payload in _make_script(seed):
        if kind == "start":
            sim.call_at(when, lambda f=payload: start(f))
        elif kind == "batch":
            def launch(flows=payload):
                for flow in flows:
                    start(flow)
            sim.call_at(when, launch)
        else:
            sim.call_at(when, lambda k=payload: abort_kth(k))
    for when in (0.5, 1.0, 1.7, 2.5, 3.3, 4.1):
        sim.call_at(when, lambda: probes.append([t.rate for t in transfers]))
    sim.run()

    return {
        "finished": [t.finished_at for t in transfers],
        "aborted": [t.aborted for t in transfers],
        "ok": [t.done.processed and t.done.ok for t in transfers],
        "remaining": [t.remaining for t in transfers],
        "rates": probes,
        "bytes": {name: link.bytes_delivered for name, link in net._links.items()},
    }


@pytest.mark.parametrize("seed", range(8))
def test_random_event_scripts_match_per_event_reference(seed):
    fast = _replay(Network, seed)
    ref = _replay(_seed_reference.Network, seed)
    # completion instants and rate trajectories are bit-identical
    assert fast["finished"] == ref["finished"]
    assert fast["rates"] == ref["rates"]
    assert fast["aborted"] == ref["aborted"]
    assert fast["ok"] == ref["ok"]
    assert fast["remaining"] == ref["remaining"]
    # byte counters agree to accumulation-order rounding
    assert set(fast["bytes"]) == set(ref["bytes"])
    for name, value in fast["bytes"].items():
        assert value == pytest.approx(ref["bytes"][name], rel=1e-9, abs=1e-6)


@pytest.mark.parametrize(
    "cap_a,cap_b",
    [
        (600.0000000001, 600.0),  # sub-_EPS near-tie: hysteresis keeps A
        (600.0, 600.0000000001),  # near-tie the other way round
        (600.0, 600.0),           # exact tie: first registration wins
    ],
)
def test_sub_eps_share_ties_match_seed_hysteresis(cap_a, cap_b):
    """Shares within _EPS of each other must resolve exactly as the
    seed's in-order strict-improvement scan does (the window fallback
    replays it), not as a plain argmin — rates stay bit-identical."""

    def build(network_cls):
        sim = Simulator()
        net = network_cls(sim)
        # round 1 is won by the cheap link, pushing A/B selection into
        # the later-round (heap-assisted) path where the near-tie lives
        c = net.add_link("c", 100.0)
        a = net.add_link("a", cap_a)
        b = net.add_link("b", cap_b)
        flows = [
            net.start_transfer([c], 1000.0),
            net.start_transfer([a], 1000.0),
            net.start_transfer([b], 1000.0),
        ]
        return sim, flows

    _sim_fast, fast = build(Network)
    _sim_ref, ref = build(_seed_reference.Network)
    assert [t.rate for t in fast] == [t.rate for t in ref]
    for sim, flows in ((_sim_fast, fast), (_sim_ref, ref)):
        sim.run()
    assert [t.finished_at for t in fast] == [t.finished_at for t in ref]


def test_sub_eps_tie_with_shared_flow_matches_seed():
    """The reviewer scenario: near-tied links coupled by a shared flow,
    where picking the 'wrong' side of the tie shifts every rate."""

    def build(network_cls):
        sim = Simulator()
        net = network_cls(sim)
        c = net.add_link("c", 100.0)
        a = net.add_link("a", 600.0000000001)
        b = net.add_link("b", 600.0)
        shared = net.add_link("shared", 650.0)
        flows = [
            net.start_transfer([c], 500.0),
            net.start_transfer([a, shared], 2000.0),
            net.start_transfer([b, shared], 2000.0),
            net.start_transfer([shared], 2000.0),
        ]
        return sim, flows

    _sim_fast, fast = build(Network)
    _sim_ref, ref = build(_seed_reference.Network)
    assert [t.rate for t in fast] == [t.rate for t in ref]


def test_probe_instants_see_settled_rates():
    """A probe scheduled at the same instant as a crowd start (but
    after it in event order) observes post-flush rates only on the
    next instant — mid-instant reads see the pre-instant allocation,
    which is the documented transaction semantics."""
    sim = Simulator()
    net = Network(sim)
    server = net.add_link("server", 1000.0)
    acc = [net.add_link(f"a{i}", 1e6) for i in range(4)]
    transfers = []

    def crowd():
        for i in range(4):
            transfers.append(net.start_transfer([server, acc[i]], 1000.0))

    seen = {}
    sim.call_at(1.0, crowd)
    sim.call_at(1.0, lambda: seen.setdefault("same_instant", [t.rate for t in transfers]))
    sim.call_at(1.5, lambda: seen.setdefault("later", [t.rate for t in transfers]))
    sim.run()
    assert seen["same_instant"] == [0.0] * 4  # pre-flush: not yet allocated
    assert seen["later"] == [250.0] * 4       # post-flush fair shares
