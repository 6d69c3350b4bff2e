"""Max-min fair-shared links and multi-link transfers.

A :class:`Transfer` moves a byte count across an ordered set of
:class:`Link` constraints (server access link, optional shared mid-path
bottleneck, client access link).  The :class:`Network` assigns every
active transfer its global max-min fair rate via progressive filling:
repeatedly find the most-contended link, freeze all its unfrozen
transfers at that link's equal share, subtract, repeat.  Rates change
whenever a transfer starts, finishes or aborts, so each transfer
progresses piecewise-linearly — an event-driven fluid model.

**Allocation instants.**  Rate assignment is an *end-of-instant
transaction*: joins, leaves and completion sweeps at one simulated
instant only mark the network dirty, and a single flush — registered
through :meth:`~repro.sim.kernel.Simulator.at_instant_end` — performs
one progress advance, one progressive-filling pass and one completion
reschedule for the whole instant.  Within an instant no simulated time
elapses (dt = 0), so deferring the recompute to the instant boundary
cannot change any trajectory: the determinism-parity suite holds whole
worlds byte-identical to the frozen seed implementation in
``_seed_reference.py``.  A synchronized N-client crowd therefore costs
one allocator pass instead of N (``allocator.sync_crowd`` in the perf
suite measures exactly this).  Outside :meth:`Simulator.run` there is
no instant to wait for, so mutations flush eagerly and synchronous
callers observe rates immediately, exactly as before.

The allocator works on the **active-link set** only and selects each
round's most-contended link from the pristine links in share order
plus the few links a freeze touched (version-stamped: a touched link's
pristine entry goes stale), so a round costs O(path · log links)
instead of a full O(links) rescan.  Completion scheduling rides the
same pass: every pass re-rates every active flow, so the pass keeps a
running minimum of the absolute ETAs (``now + remaining / rate``) as
it freezes each rate, and the flush re-arms the single completion
timer at that minimum.

Each link's aggregate throughput is maintained incrementally as rates
are frozen, so :meth:`Link.current_rate` / :meth:`Link.utilization`
are O(1) for the resource monitor.

**Weighted flows.**  A transfer may carry an integer ``weight`` —
cohort mode's macro-flows stand in for *weight* statistically
identical member flows.  Progressive filling then shares each link
per unit of weight: a link's equal share is ``capacity / Σ weights``
and a weight-w flow freezes at ``w`` times the per-unit rate, exactly
the allocation *w* separate unit flows on the same path would sum to.
With every weight at 1 the arithmetic (integer weight sums equal flow
counts, ``rate * 1`` is the identity) reduces bit-for-bit to the
unweighted allocator, so exact-mode worlds keep their frozen parity
fingerprints.

This is the substrate behaviour the Large Object stage of the paper
probes: as concurrent downloads of the same object pile onto the server
access link, each flow's fair share drops and response time climbs.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sim.events import Event
from repro.sim.kernel import SimulationError, Simulator, Timer

_EPS = 1e-9


class TransferAborted(Exception):
    """Failure value of a transfer's completion event after abort()."""


def _check_request(links: Sequence["Link"], size_bytes: float, weight: int) -> None:
    """Reject a transfer request the allocator cannot carry."""
    if not links:
        raise SimulationError("transfer needs at least one link")
    if size_bytes < 0:
        raise SimulationError("negative transfer size")
    if weight < 1 or weight != int(weight):
        raise SimulationError(f"transfer weight must be a positive int, got {weight}")


class Link:
    """A capacity constraint, in bytes per second."""

    __slots__ = (
        "name",
        "capacity_bps",
        "index",
        "transfers",
        "bytes_delivered",
        "_weight",
        "_agg_rate",
        "_agg_gen",
        "_cap_left",
        "_cnt",
        "_version",
    )

    def __init__(self, name: str, capacity_bps: float, index: int = 0) -> None:
        if capacity_bps <= 0:
            raise ValueError(f"link capacity must be positive, got {capacity_bps}")
        self.name = name
        self.capacity_bps = capacity_bps
        #: registration order within the owning Network; the allocator
        #: orders share-heap entries (and exact-tie wins) by this
        self.index = index
        #: active transfers crossing this link (insertion-ordered)
        self.transfers: Dict["Transfer", None] = {}
        #: cumulative bytes pushed through this link
        self.bytes_delivered = 0.0
        #: total weight of the active transfers (== flow count while
        #: every flow is unweighted); the allocator's share divisor
        self._weight = 0
        # aggregate of the current max-min rates, maintained by the
        # allocator so current_rate()/utilization() are O(1); _agg_gen
        # marks which allocation pass last wrote it (set-then-add
        # accumulation instead of a zeroing sweep per pass)
        self._agg_rate = 0.0
        self._agg_gen = 0
        # progressive-filling books, valid only inside one allocation
        # (slot attributes beat per-recompute dicts: no hashing);
        # _version stamps share-heap entries: a freeze that touches
        # this link's books bumps it, invalidating older entries
        self._cap_left = 0.0
        self._cnt = 0
        self._version = 0

    @property
    def active_flows(self) -> int:
        """Number of transfers currently crossing this link."""
        return len(self.transfers)

    @property
    def active_weight(self) -> int:
        """Total flow weight crossing this link (cohort members count
        once each, so a weight-N macro-flow contributes N)."""
        return self._weight

    def current_rate(self) -> float:
        """Aggregate instantaneous throughput across this link (B/s)."""
        return self._agg_rate

    def utilization(self) -> float:
        """Instantaneous throughput as a fraction of capacity."""
        return self._agg_rate / self.capacity_bps

    def __repr__(self) -> str:
        return f"Link({self.name!r}, {self.capacity_bps:.0f} B/s, flows={self.active_flows})"


class Transfer:
    """An in-flight byte stream across one or more links."""

    __slots__ = (
        "network",
        "links",
        "size_bytes",
        "weight",
        "remaining",
        "rate",
        "done",
        "started_at",
        "finished_at",
        "aborted",
        "_frozen_gen",
    )

    def __init__(
        self,
        network: "Network",
        links: Sequence[Link],
        size_bytes: float,
        weight: int = 1,
    ) -> None:
        self.network = network
        # dedupe while preserving order: a link listed twice in a path
        # is one capacity constraint, and single-entry links keep the
        # allocator's per-link books (counts, caps, aggregates) exact
        self.links = list(dict.fromkeys(links))
        self.size_bytes = float(size_bytes)
        #: fair-share weight: this flow stands in for `weight` unit
        #: flows and receives `weight` per-unit shares
        self.weight = weight
        self.remaining = float(size_bytes)
        self.rate = 0.0
        self.done: Event = Event(network.sim)
        self.started_at = network.sim.now
        self.finished_at: Optional[float] = None
        self.aborted = False
        # allocation-epoch stamp: frozen this pass when == network gen
        self._frozen_gen = 0

    @property
    def active(self) -> bool:
        """True while bytes remain and the transfer is not aborted."""
        return not self.done.triggered

    def __repr__(self) -> str:
        return (
            f"Transfer(size={self.size_bytes:.0f}, remaining={self.remaining:.0f}, "
            f"rate={self.rate:.0f})"
        )


class Network:
    """Fluid-flow network: owns links, transfers and rate assignment."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._links: Dict[str, Link] = {}
        #: active transfers in join order
        self._active: Dict[Transfer, None] = {}
        #: total weight of the active transfers (the freeze-all fast
        #: path compares a link's weight against this)
        self._active_weight = 0
        #: links with >= 1 active transfer, kept sorted by registration
        #: index (maintained incrementally on transfer join/leave), and
        #: their indices in the same order: the bisect key, a plain int
        #: list because ``insort(key=)`` needs Python 3.10
        self._active_links: List[Link] = []
        self._active_indices: List[int] = []
        self._last_advance = sim.now
        #: the single armed completion timer (superseded ones are
        #: cancelled in place, not leaked)
        self._completion_timer: Optional[Timer] = None
        # end-of-instant transaction state: mutations mark the network
        # dirty and arm one flush per simulated instant
        self._dirty = False
        self._flush_armed = False
        #: allocation-epoch counter: bumped once per allocator pass;
        #: stamps freeze marks
        self._alloc_gen = 0
        #: total allocator passes run (the perf suite's recompute count)
        self.allocations = 0

    # -- links ----------------------------------------------------------------

    def add_link(self, name: str, capacity_bps: float) -> Link:
        """Create and register a named link."""
        if name in self._links:
            raise SimulationError(f"duplicate link name: {name}")
        link = Link(name, capacity_bps, index=len(self._links))
        self._links[name] = link
        return link

    def link(self, name: str) -> Link:
        """Look up a link by name."""
        return self._links[name]

    @property
    def links(self) -> List[Link]:
        """All registered links."""
        return list(self._links.values())

    # -- transfers ---------------------------------------------------------------

    def start_transfer(
        self, links: Sequence[Link], size_bytes: float, weight: int = 1
    ) -> Transfer:
        """Begin moving *size_bytes* across *links*.

        Returns the :class:`Transfer`; wait on ``transfer.done`` for
        completion (it fires with the transfer as its value).  A
        zero-byte transfer completes immediately.  The join itself is
        O(path): rate assignment happens once per simulated instant in
        the end-of-instant flush (immediately when the simulator is
        not running).

        ``weight`` > 1 starts a cohort macro-flow that receives
        *weight* per-unit max-min shares (see the module docstring);
        *size_bytes* is then the macro total, weight × member bytes.
        """
        _check_request(links, size_bytes, weight)
        transfer = Transfer(self, links, size_bytes, weight=int(weight))
        if size_bytes == 0:
            transfer.finished_at = self.sim.now
            transfer.done.succeed(value=transfer)
            return transfer
        self._join(transfer)
        self._mark_dirty()
        return transfer

    def start_transfers(
        self, requests: Iterable[Sequence]
    ) -> List[Transfer]:
        """Batch variant of :meth:`start_transfer` for crowd launches.

        Takes ``(links, size_bytes)`` pairs — or ``(links, size_bytes,
        weight)`` triples, the cohort path — and starts them as one
        allocation transaction: all joins share a single dirty mark,
        so a synchronized crowd costs one allocator pass no matter how
        large it is.  Validation runs up front — an invalid entry
        raises before any transfer is created.

        This is the entry point for *direct* network users (the perf
        suite's crowd benches, synthetic harnesses, external drivers).
        The production request pipeline keeps per-response
        :meth:`start_transfer` joins — launches that land on a shared
        instant coalesce into the same single transaction via the
        kernel's instant-end flush, with no batching at the call site.
        """
        triples = []
        for request in requests:
            links, size_bytes = list(request[0]), request[1]
            weight = request[2] if len(request) > 2 else 1
            _check_request(links, size_bytes, weight)
            triples.append((links, float(size_bytes), int(weight)))
        transfers: List[Transfer] = []
        joined = False
        for links, size_bytes, weight in triples:
            transfer = Transfer(self, links, size_bytes, weight=weight)
            transfers.append(transfer)
            if size_bytes == 0:
                transfer.finished_at = self.sim.now
                transfer.done.succeed(value=transfer)
                continue
            self._join(transfer)
            joined = True
        if joined:
            self._mark_dirty()
        return transfers

    def abort(self, transfer: Transfer) -> None:
        """Cancel an in-flight transfer (its ``done`` event fails).

        Models the MFC client killing a request at the 10 s timeout.
        """
        if not transfer.active:
            return
        self._advance()
        if not transfer.active:
            # the advance swept the transfer to completion at this very
            # instant: it finished, there is nothing left to abort
            return
        transfer.aborted = True
        self._detach(transfer)
        exc = TransferAborted(
            f"aborted at t={self.sim.now:.3f} with {transfer.remaining:.0f}B left"
        )
        transfer.done.fail(exc)
        transfer.done._defused = True  # abort is intentional; waiter optional
        self._mark_dirty()

    def set_capacity(self, link: Link, capacity_bps: float) -> None:
        """Change *link*'s capacity mid-run (fault injection: bandwidth
        flaps).  In-flight transfers are re-allocated at the next
        instant boundary, exactly as when a flow joins or leaves."""
        if capacity_bps <= 0:
            raise ValueError("link capacity must be positive")
        if link.capacity_bps == capacity_bps:
            return
        self._advance()
        link.capacity_bps = capacity_bps
        self._mark_dirty()

    # -- internals ----------------------------------------------------------------

    def _join(self, transfer: Transfer) -> None:
        self._active[transfer] = None
        self._active_weight += transfer.weight
        for link in transfer.links:
            if not link.transfers:
                indices = self._active_indices
                at = bisect_left(indices, link.index)
                indices.insert(at, link.index)
                self._active_links.insert(at, link)
            link.transfers[transfer] = None
            link._weight += transfer.weight

    def _detach(self, transfer: Transfer) -> None:
        if transfer in self._active:
            del self._active[transfer]
            self._active_weight -= transfer.weight
        for link in transfer.links:
            if transfer in link.transfers:
                del link.transfers[transfer]
                link._weight -= transfer.weight
            if not link.transfers:
                # a drained link carries no rate; zeroing here (rather
                # than in a per-pass sweep) keeps current_rate() exact
                # for links the next allocation no longer visits
                link._agg_rate = 0.0
                link._weight = 0
                at = bisect_left(self._active_indices, link.index)
                del self._active_indices[at]
                del self._active_links[at]

    def _mark_dirty(self) -> None:
        """Queue this instant's single allocation flush.

        Inside the event loop the flush rides the kernel's
        instant-end hook; outside it (tests and benches poking the
        network synchronously) there is no instant boundary to wait
        for, so the flush runs immediately — preserving the historical
        eager semantics for direct callers.
        """
        self._dirty = True
        if self._flush_armed:
            return
        self._flush_armed = True
        if self.sim._running:
            self.sim.at_instant_end(self._flush)
        else:
            self._flush()

    def _flush(self) -> None:
        """The end-of-instant transaction: advance, allocate, rearm.

        The single completion timer is re-armed at the earliest ETA the
        allocation pass reports; the superseded one is cancelled in
        place (its slot fires as a no-op instead of accumulating a live
        closure per recompute).
        """
        self._flush_armed = False
        if not self._dirty:
            return
        self._dirty = False
        self._advance()
        timer = self._completion_timer
        if timer is not None:
            timer.cancel()
            self._completion_timer = None
        eta = self._assign_max_min_rates()
        if eta < math.inf:
            self._completion_timer = self.sim.call_at(eta, self._on_completion)

    def _advance(self) -> None:
        """Apply progress since the last rate change.

        Completion is swept even when no time elapsed: a transfer whose
        remaining bytes underflowed float resolution must still finish,
        otherwise its zero-delay completion timer re-arms forever.
        """
        now = self.sim.now
        dt = now - self._last_advance
        self._last_advance = now
        completed: List[Transfer] = []
        slack_scale = now * 1e-12
        if dt > 0:
            # per-link byte accounting as the aggregate-rate integral:
            # sum(rate_i) * dt instead of one += per transfer per link
            # (equal up to float accumulation order, which is all the
            # byte counters promise — the monitor and the tests read
            # them with relative tolerances)
            for link in self._active_links:
                link.bytes_delivered += link._agg_rate * dt
            for transfer in self._active:
                transfer.remaining -= transfer.rate * dt
                # absolute-and-relative epsilon: sub-byte remainders
                # and remainders the current rate cannot resolve within
                # a float tick both count as done (the 1e-6 absolute
                # floor absorbs the old max(_EPS, ...) lower clamp)
                slack = transfer.rate * slack_scale
                if transfer.remaining <= (slack if slack > 1e-6 else 1e-6):
                    completed.append(transfer)
        else:
            for transfer in self._active:
                slack = transfer.rate * slack_scale
                if transfer.remaining <= (slack if slack > 1e-6 else 1e-6):
                    completed.append(transfer)
        for transfer in completed:
            for link in transfer.links:
                link.bytes_delivered += transfer.remaining
            transfer.remaining = 0.0
            self._detach(transfer)
            transfer.finished_at = now
            transfer.done.succeed(value=transfer)

    def _assign_max_min_rates(self) -> float:
        """Progressive filling restricted to the active-link set.

        Returns the earliest absolute completion ETA (``now +
        remaining / rate`` over the flows with a rate above ε, ``inf``
        when there is none), a running minimum taken as each flow's
        rate is frozen: every pass re-rates every active flow, so this
        is the completion instant to arm.

        Round 1 runs the seed's registration-order scan over pristine
        capacities (feeding the freeze-all fast path).  Later rounds
        pull the most-contended link from a lazy min-heap keyed
        ``(share, registration index)``: freezing a link's transfers
        touches only the links on their paths, whose entries are
        version-bumped and re-pushed fresh, so a round costs
        O(path · log links) instead of rescanning every active link.
        Share values are computed from exactly the same books with
        exactly the same ``cap_left / count`` arithmetic as the seed's
        scan, and exact ties resolve to the lowest registration index
        either way, which keeps the assigned rates bit-identical (the
        parity suite is the proof).
        """
        self.allocations += 1
        gen = self._alloc_gen = self._alloc_gen + 1
        active = self._active
        if not active:
            return math.inf
        links = self._active_links
        now = self.sim.now
        eta = math.inf

        # round 1 over pristine capacities needs no cap/count books:
        # the unfrozen weight of every active link is its total weight
        # (== flow count while every flow is unweighted)
        best_link = None
        best_share = math.inf
        for link in links:
            share = link.capacity_bps / link._weight
            if share < best_share - _EPS:
                best_share = share
                best_link = link
        if best_link is None:
            # no finite share: the rates stand as they are
            return min(
                (now + t.remaining / t.rate for t in active if t.rate > _EPS),
                default=math.inf,
            )
        rate = max(best_share, 0.0)
        if best_link._weight == self._active_weight:
            # the most-contended link carries *every* unit of flow
            # weight (an MFC crowd piling onto the server access
            # link): one round freezes them all, so skip the
            # progressive-filling books
            for transfer in active:
                frozen = transfer.rate = rate * transfer.weight
                if frozen > _EPS:
                    done_at = now + transfer.remaining / frozen
                    if done_at < eta:
                        eta = done_at
            for link in links:
                link._agg_rate = rate * link._weight
                link._agg_gen = gen
            return eta

        # general case: run full progressive filling (round 1's best
        # link is already known; its books start pristine).
        #
        # Selection structure: *pristine* links (books untouched since
        # the pass began) live in a share-sorted array consumed by an
        # advancing cursor — pristine shares never change and
        # progressive filling consumes them in (share, index) order,
        # so the first still-valid entry at the cursor is always the
        # pristine minimum; entries go stale in place when a freeze
        # touches their link (version bump), never to revalidate.
        # Touched links move to the small `fresh` set (typically just
        # the server access link plus a shared bottleneck) whose
        # shares are recomputed from live books each round.
        #
        # Seed-exactness: the seed scans every candidate in
        # registration order keeping a running best that only a strict
        # > _EPS improvement replaces, so (a) its winner is always
        # within _EPS of the exact minimum share, and (b) any
        # candidate that can beat or block the winner must itself lie
        # within 2·_EPS of the minimum.  Hence when every candidate
        # share inside that window *equals* the minimum (the common
        # case — including exact ties between same-capacity links),
        # the seed's pick is simply the lowest-index minimum holder;
        # only genuinely distinct shares within the window (engineered
        # sub-_EPS near-ties) require replaying the seed's full
        # in-order hysteresis scan, which reproduces it bit-for-bit.
        for transfer in active:
            transfer.rate = 0.0
        order: List[Tuple[float, int, Link]] = []
        for link in links:
            link._cap_left = link.capacity_bps
            link._cnt = link._weight
            link._version = 0
            if link is not best_link:
                order.append(
                    (link.capacity_bps / link._weight, link.index, link)
                )
        order.sort()
        pristine_shares = [entry[0] for entry in order]
        pos = 0
        n_order = len(order)
        unfrozen_left = len(active)
        fresh: Dict[Link, None] = {}
        while True:
            for transfer in best_link.transfers:
                if transfer._frozen_gen == gen:
                    continue
                transfer._frozen_gen = gen
                weight = transfer.weight
                frozen = rate * weight
                transfer.rate = frozen
                if frozen > _EPS:
                    done_at = now + transfer.remaining / frozen
                    if done_at < eta:
                        eta = done_at
                unfrozen_left -= 1
                for link in transfer.links:
                    link._cap_left -= frozen
                    link._cnt -= weight
                    if link._agg_gen == gen:
                        link._agg_rate += frozen
                    else:
                        link._agg_rate = frozen
                        link._agg_gen = gen
                    link._version = 1  # pristine entry now stale
                    fresh[link] = None
            if unfrozen_left == 0:
                return eta
            # candidate minima: recomputed fresh shares + the pristine
            # cursor; near-tie detection looks for a share inside the
            # (min, min + 2·_EPS] window that differs from the minimum
            exact_min = math.inf
            min_index = -1
            min_link = None
            near_tie = False
            drained = []
            fresh_shares: List[Tuple[float, int, Link]] = []
            for link in fresh:
                count = link._cnt
                if count <= 0:
                    drained.append(link)
                    continue
                share = link._cap_left / count
                fresh_shares.append((share, link.index, link))
                if share < exact_min or (
                    share == exact_min and link.index < min_index
                ):
                    exact_min = share
                    min_index = link.index
                    min_link = link
            for link in drained:
                del fresh[link]
            while pos < n_order and order[pos][2]._version != 0:
                pos += 1
            if pos < n_order:
                share, index, link = order[pos]
                if share < exact_min or (share == exact_min and index < min_index):
                    exact_min = share
                    min_index = index
                    min_link = link
            if min_link is None:
                return eta
            window = exact_min + _EPS + _EPS
            for share, _index, _link in fresh_shares:
                if share != exact_min and share <= window:
                    near_tie = True
                    break
            if not near_tie:
                # first pristine share strictly above the minimum (the
                # sorted array makes this a bisect; a stale entry here
                # only forces the conservative fallback, never a miss —
                # its link's live share is checked on the fresh side)
                after_min = bisect_right(pristine_shares, exact_min, pos)
                if after_min < n_order and pristine_shares[after_min] <= window:
                    near_tie = True
            if near_tie:
                # replay the seed's ordered hysteresis scan over every
                # live candidate, bit-for-bit
                candidates = [
                    (index, share, link) for share, index, link in fresh_shares
                ]
                candidates.extend(
                    (index, share, link)
                    for share, index, link in order[pos:]
                    if link._version == 0
                )
                candidates.sort()
                best_link = None
                best_share = math.inf
                for _index, share, link in candidates:
                    if share < best_share - _EPS:
                        best_share = share
                        best_link = link
                if best_link is None:
                    return eta
            else:
                best_link = min_link
                best_share = exact_min
            fresh.pop(best_link, None)
            rate = max(best_share, 0.0)

    def _on_completion(self) -> None:
        self._completion_timer = None
        self._mark_dirty()
