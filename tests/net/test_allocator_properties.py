"""Property-style invariants of the max-min rate allocator.

Seeded random flow sets over random topologies, probed mid-flight:

- **conservation** — per link, the sum of flow rates never exceeds
  capacity, and the incrementally maintained ``current_rate()`` equals
  that sum;
- **max-min fairness** — every active flow has a *bottleneck link*: a
  saturated link on its path where no other flow gets a higher rate
  (the defining property of the max-min allocation);
- **no starvation** — every active flow gets a strictly positive rate,
  and every non-aborted transfer eventually completes;
- **abort behaviour** — aborting mid-transfer frees capacity for the
  survivors and keeps per-link byte accounting consistent.
"""

import random

import pytest

from repro.net import Network, TransferAborted
from repro.sim import Simulator

#: progressive filling freezes shares with an EPS slop per round, so
#: invariants hold to a small relative tolerance, not exactly
REL_TOL = 1e-6


def _build_random_world(seed, n_access=12, n_flows=40, with_bottleneck=True):
    """A server link + client access links + optional mid-path link,
    with *n_flows* transfers joining at random times."""
    rng = random.Random(seed)
    sim = Simulator()
    net = Network(sim)
    server = net.add_link("server", rng.uniform(2e6, 2e7))
    mid = (
        net.add_link("mid", rng.uniform(1e6, 1e7)) if with_bottleneck else None
    )
    access = [
        net.add_link(f"acc{i}", rng.uniform(1e5, 1.5e7)) for i in range(n_access)
    ]
    transfers = []

    def start(path, size):
        transfers.append(net.start_transfer(path, size))

    for _ in range(n_flows):
        acc = rng.choice(access)
        path = [server, acc]
        if mid is not None and rng.random() < 0.4:
            path.insert(1, mid)
        size = rng.uniform(1e4, 5e5)
        sim.call_in(rng.uniform(0.0, 2.0), lambda p=path, s=size: start(p, s))
    return sim, net, transfers


def _check_invariants(net, failures):
    """Record any invariant violation among the currently active flows."""
    active = [t for t in net._active]
    for link in net.links:
        flows = list(link.transfers)
        total = sum(t.rate for t in flows)
        if total > link.capacity_bps * (1.0 + REL_TOL) + 1e-6:
            failures.append(f"{link.name}: sum(rates)={total} > cap={link.capacity_bps}")
        if abs(total - link.current_rate()) > max(total, 1.0) * REL_TOL:
            failures.append(
                f"{link.name}: current_rate()={link.current_rate()} != sum={total}"
            )
    for t in active:
        if t.rate <= 0.0:
            failures.append(f"starved flow: {t!r}")
            continue
        bottlenecked = False
        for link in t.links:
            saturated = (
                sum(x.rate for x in link.transfers)
                >= link.capacity_bps * (1.0 - REL_TOL) - 1e-6
            )
            top_rate = max(x.rate for x in link.transfers)
            if saturated and t.rate >= top_rate * (1.0 - REL_TOL):
                bottlenecked = True
                break
        if not bottlenecked:
            failures.append(f"flow without a bottleneck link: {t!r}")


@pytest.mark.parametrize("seed", range(6))
def test_random_flow_sets_hold_allocator_invariants(seed):
    sim, net, transfers = _build_random_world(seed)
    failures = []
    for when in [0.5, 1.0, 1.5, 2.0, 2.5, 3.5, 5.0]:
        sim.call_in(when, lambda: _check_invariants(net, failures))
    sim.run()
    assert not failures, failures[:5]
    assert all(t.done.processed and t.done.ok for t in transfers)
    # byte conservation per link: every transfer crossing it delivered
    # its full size
    for link in net.links:
        expected = sum(t.size_bytes for t in transfers if link in t.links)
        assert link.bytes_delivered == pytest.approx(expected, rel=REL_TOL)


@pytest.mark.parametrize("seed", range(4))
def test_aborts_mid_transfer_keep_invariants(seed):
    rng = random.Random(1000 + seed)
    sim, net, transfers = _build_random_world(seed, n_flows=30)
    failures = []

    def abort_one():
        active = [t for t in net._active]
        if active:
            net.abort(rng.choice(active))

    for when in [0.8, 1.2, 1.9, 2.4, 3.0]:
        sim.call_in(when, abort_one)
        sim.call_in(when + 0.05, lambda: _check_invariants(net, failures))
    sim.run()
    assert not failures, failures[:5]
    aborted = [t for t in transfers if t.aborted]
    survivors = [t for t in transfers if not t.aborted]
    assert all(isinstance(t.done.exception, TransferAborted) for t in aborted)
    assert all(t.done.processed and t.done.ok for t in survivors)
    # per-link accounting: completed flows contributed their full size,
    # aborted flows between 0 and their full size
    for link in net.links:
        lo = sum(t.size_bytes for t in survivors if link in t.links)
        hi = lo + sum(t.size_bytes for t in aborted if link in t.links)
        assert lo * (1 - REL_TOL) - 1e-6 <= link.bytes_delivered
        assert link.bytes_delivered <= hi * (1 + REL_TOL) + 1e-6


def test_shared_bottleneck_is_split_equally():
    """Flows differing only in (ample) access links share the
    bottleneck exactly equally."""
    sim = Simulator()
    net = Network(sim)
    server = net.add_link("server", 1000.0)
    transfers = []
    for i in range(8):
        acc = net.add_link(f"acc{i}", 1e6)
        transfers.append(net.start_transfer([server, acc], 1000.0))
    for t in transfers:
        assert t.rate == pytest.approx(1000.0 / 8)
    sim.run()
    finish = transfers[0].finished_at
    assert all(t.finished_at == finish for t in transfers)


def test_no_zero_rate_starvation_under_heavy_contention():
    """Hundreds of flows on one tiny link: all progress, none starve."""
    sim = Simulator()
    net = Network(sim)
    tiny = net.add_link("tiny", 10.0)
    transfers = [net.start_transfer([tiny], 5.0) for _ in range(200)]
    assert all(t.rate > 0 for t in transfers)
    assert tiny.current_rate() == pytest.approx(10.0)
    sim.run()
    assert all(t.done.processed and t.done.ok for t in transfers)
    assert tiny.bytes_delivered == pytest.approx(5.0 * 200)


def test_duplicate_link_in_path_counts_once():
    """A link listed twice in a path is one constraint: books and
    aggregates stay exact, and the transfer completes normally."""
    sim = Simulator()
    net = Network(sim)
    link = net.add_link("l", 100.0)
    other = net.add_link("o", 1000.0)
    t = net.start_transfer([link, other, link], 200.0)
    assert t.links == [link, other]
    assert t.rate == pytest.approx(100.0)
    assert link.current_rate() == pytest.approx(100.0)
    sim.run()
    assert t.done.processed and t.done.ok
    assert t.finished_at == pytest.approx(2.0)
    assert net._active_links == []


def test_active_link_set_shrinks_back_to_empty():
    """The incrementally maintained active-link list empties out (and
    aggregates zero) once the network quiesces."""
    sim = Simulator()
    net = Network(sim)
    a = net.add_link("a", 100.0)
    b = net.add_link("b", 100.0)
    net.start_transfer([a, b], 50.0)
    assert [l.name for l in net._active_links] == ["a", "b"]
    sim.run()
    assert net._active_links == []
    assert a.current_rate() == 0.0
    assert b.current_rate() == 0.0


def test_active_links_stay_in_registration_order_under_scrambled_joins():
    """Links join and leave the active set in an order unrelated to
    their registration; the set stays sorted by registration index."""
    sim = Simulator()
    net = Network(sim)
    links = [net.add_link(f"l{i}", 100.0) for i in range(12)]
    rng = random.Random(5)
    live = []
    for _ in range(200):
        if live and rng.random() < 0.45:
            net.abort(live.pop(rng.randrange(len(live))))
        else:
            path = rng.sample(links, rng.randint(1, 3))
            live.append(net.start_transfer(path, 1e9))
        expected = sorted(
            {link.index for t in live for link in t.links}
        )
        assert [link.index for link in net._active_links] == expected
    for transfer in live:
        net.abort(transfer)
    assert net._active_links == []


def test_abort_at_exact_completion_instant_is_a_noop():
    """An abort landing at the transfer's completion timestamp (the
    10 s kill timer racing the completion sweep) completes the
    transfer instead of crashing or failing it."""
    sim = Simulator()
    net = Network(sim)
    link = net.add_link("l", 100.0)
    holder = {}
    # the kill timer is armed before the transfer exists (as the MFC
    # client arms its 10 s timeout), so it fires before the completion
    # timer at the shared instant and races the completion sweep
    sim.call_at(10.0, lambda: net.abort(holder["t"]))
    holder["t"] = net.start_transfer([link], 1000.0)  # completes at t=10
    sim.run()
    t = holder["t"]
    assert t.done.processed and t.done.ok
    assert not t.aborted
    assert t.finished_at == pytest.approx(10.0)
