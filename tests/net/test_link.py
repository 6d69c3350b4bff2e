"""Tests for the max-min fair fluid network."""

import pytest

from repro.net import Link, Network, TransferAborted
from repro.sim import Simulator, SimulationError


def make_net():
    sim = Simulator()
    return sim, Network(sim)


def test_single_flow_uses_full_capacity():
    sim, net = make_net()
    link = net.add_link("l", 1000.0)  # 1000 B/s
    t = net.start_transfer([link], 5000.0)
    sim.run()
    assert t.done.processed
    assert t.finished_at == pytest.approx(5.0)


def test_two_flows_share_equally():
    sim, net = make_net()
    link = net.add_link("l", 1000.0)
    t1 = net.start_transfer([link], 1000.0)
    t2 = net.start_transfer([link], 1000.0)
    sim.run()
    # both at 500 B/s → 2 s each
    assert t1.finished_at == pytest.approx(2.0)
    assert t2.finished_at == pytest.approx(2.0)


def test_rate_rises_when_competitor_finishes():
    sim, net = make_net()
    link = net.add_link("l", 1000.0)
    small = net.start_transfer([link], 500.0)
    big = net.start_transfer([link], 1500.0)
    sim.run()
    # phase 1: both at 500 B/s until small done at t=1 (big has 1000 left)
    # phase 2: big at 1000 B/s → finishes at t=2
    assert small.finished_at == pytest.approx(1.0)
    assert big.finished_at == pytest.approx(2.0)


def test_late_arrival_slows_existing_flow():
    sim, net = make_net()
    link = net.add_link("l", 1000.0)
    first = net.start_transfer([link], 2000.0)

    second_holder = {}

    def arrive_later():
        second_holder["t"] = net.start_transfer([link], 500.0)

    sim.call_in(1.0, arrive_later)
    sim.run()
    # first: 1000 B in first second, shares 500 B/s for 1 s (500 B more),
    # then 500 B at full rate → 1.0 + 1.0 + 0.5 = 2.5 s
    assert second_holder["t"].finished_at == pytest.approx(2.0)
    assert first.finished_at == pytest.approx(2.5)


def test_bottleneck_is_minimum_along_path():
    sim, net = make_net()
    fast = net.add_link("fast", 10_000.0)
    slow = net.add_link("slow", 100.0)
    t = net.start_transfer([fast, slow], 1000.0)
    sim.run()
    assert t.finished_at == pytest.approx(10.0)


def test_max_min_respects_per_client_caps():
    """One shared link, two clients with very different access rates."""
    sim, net = make_net()
    shared = net.add_link("server", 1000.0)
    slow_client = net.add_link("dsl", 100.0)
    fast_client = net.add_link("fiber", 10_000.0)
    slow = net.start_transfer([shared, slow_client], 100.0)
    fast = net.start_transfer([shared, fast_client], 900.0)
    sim.run()
    # max-min: slow flow pinned at 100 B/s by its access link; fast flow
    # gets the remaining 900 B/s of the shared link
    assert slow.finished_at == pytest.approx(1.0)
    assert fast.finished_at == pytest.approx(1.0)


def test_bytes_conservation_across_many_flows():
    sim, net = make_net()
    link = net.add_link("l", 1234.0)
    sizes = [100.0, 450.0, 901.0, 77.0, 3000.0]
    transfers = [net.start_transfer([link], s) for s in sizes]
    sim.run()
    assert all(t.done.processed for t in transfers)
    assert link.bytes_delivered == pytest.approx(sum(sizes))


def test_zero_byte_transfer_completes_immediately():
    sim, net = make_net()
    link = net.add_link("l", 10.0)
    t = net.start_transfer([link], 0.0)
    assert t.done.triggered
    sim.run()
    assert t.finished_at == 0.0


def test_abort_frees_capacity():
    sim, net = make_net()
    link = net.add_link("l", 1000.0)
    doomed = net.start_transfer([link], 10_000.0)
    survivor = net.start_transfer([link], 1000.0)
    sim.call_in(0.5, lambda: net.abort(doomed))
    sim.run()
    # survivor: 0.5 s at 500 B/s (250 B), then full rate for 750 B → 1.25 s
    assert survivor.finished_at == pytest.approx(1.25)
    assert doomed.aborted
    assert isinstance(doomed.done.exception, TransferAborted)


def test_abort_is_idempotent():
    sim, net = make_net()
    link = net.add_link("l", 1000.0)
    t = net.start_transfer([link], 1000.0)
    net.abort(t)
    net.abort(t)  # second abort is a no-op
    sim.run()
    assert t.aborted


def test_waiting_process_sees_abort_exception():
    sim, net = make_net()
    link = net.add_link("l", 1000.0)
    outcome = []

    def downloader(sim):
        t = net.start_transfer([link], 10_000.0)
        try:
            yield t.done
            outcome.append("done")
        except TransferAborted:
            outcome.append("aborted")

    sim.process(downloader(sim))
    sim.call_in(1.0, lambda: net.abort(next(iter(net._active))))
    sim.run()
    assert outcome == ["aborted"]


def test_link_utilization_and_flow_count():
    sim, net = make_net()
    link = net.add_link("l", 1000.0)
    net.start_transfer([link], 5000.0)
    net.start_transfer([link], 5000.0)
    sim.run(until=1.0)
    assert link.active_flows == 2
    assert link.utilization() == pytest.approx(1.0)
    assert link.current_rate() == pytest.approx(1000.0)


def test_negative_size_rejected():
    sim, net = make_net()
    link = net.add_link("l", 1.0)
    with pytest.raises(SimulationError):
        net.start_transfer([link], -5.0)


def test_empty_path_rejected():
    sim, net = make_net()
    with pytest.raises(SimulationError):
        net.start_transfer([], 5.0)


def test_duplicate_link_name_rejected():
    sim, net = make_net()
    net.add_link("x", 1.0)
    with pytest.raises(SimulationError):
        net.add_link("x", 2.0)


def test_invalid_capacity_rejected():
    with pytest.raises(ValueError):
        Link("bad", 0.0)


def test_start_transfers_batch_matches_sequential_starts():
    """A batch launch allocates once but lands the same rates,
    completion times and byte totals as per-call starts."""
    sizes = [100.0, 450.0, 901.0, 77.0, 3000.0]

    sim_a, net_a = make_net()
    link_a = net_a.add_link("l", 1234.0)
    seq = [net_a.start_transfer([link_a], s) for s in sizes]
    sim_a.run()

    sim_b, net_b = make_net()
    link_b = net_b.add_link("l", 1234.0)
    batch = net_b.start_transfers([([link_b], s) for s in sizes])
    assert net_b.allocations == 1  # one transaction for the whole crowd
    sim_b.run()

    assert [t.finished_at for t in batch] == [t.finished_at for t in seq]
    assert link_b.bytes_delivered == pytest.approx(link_a.bytes_delivered)


def test_start_transfers_handles_zero_byte_entries():
    sim, net = make_net()
    link = net.add_link("l", 1000.0)
    batch = net.start_transfers([([link], 0.0), ([link], 1000.0)])
    assert batch[0].done.triggered
    assert batch[0].finished_at == 0.0
    sim.run()
    assert batch[1].finished_at == pytest.approx(1.0)


def test_start_transfers_validates_before_starting_any():
    sim, net = make_net()
    link = net.add_link("l", 1000.0)
    with pytest.raises(SimulationError):
        net.start_transfers([([link], 10.0), ([], 5.0)])
    with pytest.raises(SimulationError):
        net.start_transfers([([link], 10.0), ([link], -1.0)])
    # the invalid batches started nothing
    assert not net._active
    sim.run()


def test_start_transfers_rejects_a_fractional_weight_like_start_transfer():
    # a weight of 2.7 must not be truncated to 2 before validation
    sim, net = make_net()
    link = net.add_link("l", 1000.0)
    message = "transfer weight must be a positive int, got 2.7"
    with pytest.raises(SimulationError, match=message):
        net.start_transfer([link], 10.0, weight=2.7)
    with pytest.raises(SimulationError, match=message):
        net.start_transfers([([link], 10.0), ([link], 10.0, 2.7)])
    assert not net._active
    # an integral float weight is still accepted, as an int
    (transfer,) = net.start_transfers([([link], 10.0, 3.0)])
    assert transfer.weight == 3 and type(transfer.weight) is int


def test_same_instant_starts_inside_run_allocate_once():
    """N joins at one simulated instant cost one allocator pass."""
    sim, net = make_net()
    server = net.add_link("server", 1000.0)
    access = [net.add_link(f"acc{i}", 10_000.0) for i in range(8)]
    transfers = []

    def crowd():
        for i in range(8):
            transfers.append(net.start_transfer([server, access[i]], 125.0))

    sim.call_at(1.0, crowd)
    sim.run()
    # one pass for the crowd's instant, one for the batched completion
    # sweep (all flows share the bottleneck equally, so they finish on
    # a single timestamp)
    assert net.allocations == 2
    finish = transfers[0].finished_at
    assert finish == pytest.approx(2.0)
    assert all(t.finished_at == finish for t in transfers)


def test_flush_not_stranded_when_awaited_process_ends_at_start_instant():
    """A transfer started at the final instant of a run_until_complete'd
    process must still get its end-of-instant allocation, and later
    synchronous mutations must flush eagerly again (the armed flush is
    not stranded by the early loop exit)."""
    sim, net = make_net()
    link = net.add_link("l", 1000.0)
    holder = {}

    def body():
        yield 1.0
        holder["t"] = net.start_transfer([link], 1000.0)
        return "done"

    assert sim.run_until_complete(sim.process(body())) == "done"
    assert holder["t"].rate == pytest.approx(1000.0)  # flush ran
    # the network is re-armable: a synchronous start allocates eagerly
    t2 = net.start_transfer([link], 1000.0)
    assert t2.rate == pytest.approx(500.0)
    assert holder["t"].rate == pytest.approx(500.0)


def test_many_flows_on_shared_plus_private_links():
    """N flows over the server link, each with a private fat access link."""
    sim, net = make_net()
    server = net.add_link("server", 1000.0)
    transfers = []
    for i in range(10):
        access = net.add_link(f"acc{i}", 10_000.0)
        transfers.append(net.start_transfer([server, access], 100.0))
    sim.run()
    # each gets 100 B/s → all finish at t=1
    for t in transfers:
        assert t.finished_at == pytest.approx(1.0)
