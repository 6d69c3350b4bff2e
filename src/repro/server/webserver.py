"""The simulated web server: full per-request pipeline.

Request lifecycle (mirrors a 2007 Apache worker-MPM deployment):

1. **Admission** — if the listen backlog is full the connection is
   refused (a fast 503).
2. **Worker** — the connection waits for a worker thread; the thread
   is held until the *last byte of the response is sent*, which is why
   a saturated access link can exhaust workers and make *every* stage
   stop at the same crowd size (the paper's Univ-2 signature).
3. **Parse** — per-request HTTP processing on the CPU.
4. **Content work** — per request class:
   HEAD → CPU only; static GET → object cache, else disk; query →
   dynamic backend (FastCGI/Mongrel) + database.
5. **Send** — the response crosses the server access link, any shared
   mid-path bottleneck and the client access link through the fluid
   network, with TCP slow-start timing.

Every request is recorded in the access log with its server-side
arrival timestamp, which is what the synchronization analyses read.
"""

from __future__ import annotations

from collections import deque
from typing import Generator, Optional

from repro.content.objects import WebObject
from repro.content.site import SiteContent
from repro.net.link import Link, Network
from repro.net.tcp import TcpModel
from repro.net.topology import ClientNode
from repro.server.accesslog import AccessLog
from repro.server.backends import make_backend
from repro.server.cache import LRUCache
from repro.server.database import Database
from repro.server.http import (
    HEADER_BYTES,
    HTTPRequest,
    HTTPResponse,
    Method,
    Status,
    split_cache_bust,
)
from repro.server.resources import ServerResources, ServerSpec
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.sim.resources import Resource


class SimWebServer:
    """One server box serving one site over one access link."""

    def __init__(
        self,
        sim: Simulator,
        spec: ServerSpec,
        site: SiteContent,
        network: Network,
        access_link: Link,
        tcp: Optional[TcpModel] = None,
    ) -> None:
        self.sim = sim
        self.spec = spec
        self.site = site
        self.network = network
        self.access_link = access_link
        self.tcp = tcp if tcp is not None else TcpModel()
        self.resources = ServerResources(sim, spec)
        self.database = Database(sim, spec.db, name=f"{spec.name}.db")
        self.backend = make_backend(sim, spec.backend, self.resources, self.database)
        self.object_cache = LRUCache(spec.object_cache_bytes, name=f"{spec.name}.ocache")
        self.response_cache = LRUCache(
            spec.response_cache_bytes, name=f"{spec.name}.rcache"
        )
        self.access_log = AccessLog()
        #: requests currently inside the pipeline (incl. queued)
        self.pending_requests = 0
        self.refused_requests = 0
        # The thrash software artifact (the paper's Univ-2 signature):
        # triggered by the connection-arrival burst (connections opened
        # within the last second) — that is what a synchronized crowd
        # of N produces regardless of how fast requests drain.  While
        # thrashing, EVERY response pays a uniform completion penalty
        # (buffer exhaustion → packet loss → recovery stalls hit all
        # connections alike), which is what lets even the Large Object
        # stage's 90th-percentile rule observe it.  Thrash is sticky
        # until the burst rate falls to a quarter of the threshold.
        self._thrashing = False
        #: (arrival_time, weight) pairs inside the 1 s burst window;
        #: a weighted cohort arrival counts as *weight* connections
        self._recent_arrivals: deque = deque()
        self._recent_weight = 0
        #: total weight of requests holding or waiting for a worker —
        #: cohort admission consults this weighted ledger where exact
        #: mode reads the (equal, unweighted) worker queue length
        self._worker_load_weight = 0
        #: fault injection: a crashed box answers nothing (no RST, no
        #: 503) until :meth:`restart` brings it back with cold caches
        self.crashed = False
        self.crash_count = 0

    # -- fault injection ----------------------------------------------------------

    def crash(self) -> None:
        """Take the box down: every in-flight and new request hangs
        unanswered (clients observe their own kill timers, exactly as
        against a dead host)."""
        self.crashed = True
        self.crash_count += 1

    def restart(self) -> None:
        """Bring the box back with cold caches and a clean burst window."""
        self.crashed = False
        self.object_cache.clear()
        self.response_cache.clear()
        self._thrashing = False
        self._recent_arrivals.clear()
        self._recent_weight = 0

    # -- public interface ---------------------------------------------------------

    def submit(
        self,
        request: HTTPRequest,
        client: ClientNode,
        rtt: float,
        weight: int = 1,
        meter=None,
    ) -> Process:
        """Serve *request* for *client*; the process yields the response.

        Call this at the instant the request's first byte reaches the
        server (the caller models handshake propagation).  The process
        completes when the client has received the last response byte.

        ``weight > 1`` serves a cohort macro-request: one
        representative runs the pipeline, the crowd's total footprint
        is applied for real where it is cheap and observable (arrival
        burst, memory, flow weight, admission ledger) and accounted on
        *meter* everywhere else (busy integrals, per-resource demand
        for positional synthesis — see :mod:`repro.core.cohort`).
        """
        # counted at submit time so load-balancer policies see it
        self.pending_requests += weight
        return self.sim.process(self._handle(request, client, rtt, weight, meter))

    # -- pipeline -------------------------------------------------------------------

    def _handle(
        self,
        request: HTTPRequest,
        client: ClientNode,
        rtt: float,
        weight: int = 1,
        meter=None,
    ) -> Generator:
        arrival = self.sim.now
        try:
            if self.crashed:
                # a dead host never answers: park on an event that never
                # triggers and let the client's kill timer resolve it
                yield Event(self.sim)
            threshold = self.spec.accept_thrash_threshold
            if threshold is not None:
                # a synchronized crowd lands N arrivals on this very
                # instant, so the window trim and burst test run N
                # times per epoch — keep them tight.  A cohort arrival
                # carries its whole crowd's connection count.
                recent = self._recent_arrivals
                recent.append((arrival, weight))
                self._recent_weight += weight
                horizon = arrival - 1.0
                while recent[0][0] < horizon:
                    self._recent_weight -= recent.popleft()[1]
                burst = self._recent_weight
                if burst > threshold:
                    self._thrashing = True
                elif burst <= max(threshold // 4, 1):
                    self._thrashing = False

            # admission: exact mode keeps the seed's unweighted queue
            # test; a cohort arrival consults the weighted ledger and
            # may be *partially* admitted — the refused members are
            # synthesized as fast 503s by the cohort layer
            admitted = weight
            if weight == 1:
                if self.resources.workers.queue_len >= self.spec.listen_backlog:
                    self.refused_requests += 1
                    yield from self._send(client, HEADER_BYTES, rtt)
                    return self._finish(
                        request, arrival, Status.SERVICE_UNAVAILABLE, HEADER_BYTES
                    )
            else:
                room = (
                    self.spec.max_workers
                    + self.spec.listen_backlog
                    - self._worker_load_weight
                )
                admitted = max(0, min(weight, room))
                refused = weight - admitted
                if refused > 0:
                    self.refused_requests += refused
                    if meter is not None:
                        meter.refused_weight += refused
                if admitted == 0:
                    yield from self._send(
                        client, HEADER_BYTES, rtt, weight=weight, meter=meter
                    )
                    return self._finish(
                        request, arrival, Status.SERVICE_UNAVAILABLE, HEADER_BYTES
                    )

            self._worker_load_weight += admitted
            worker = yield from self.resources.workers.acquire(meter)
            worker_from = self.sim.now
            if weight == 1:
                got_memory = self.resources.allocate_memory(
                    self.spec.per_request_memory_bytes
                )
                request_memory = (
                    self.spec.per_request_memory_bytes if got_memory else 0.0
                )
            else:
                request_memory = self.resources.allocate_memory_bulk(
                    admitted * self.spec.per_request_memory_bytes
                )
            try:
                yield from self.resources.consume_cpu(
                    self.spec.request_parse_cpu_s, weight=admitted, meter=meter
                )

                obj = self.site.lookup(request.path)
                cache_bust = False
                if obj is None:
                    # a unique query-string suffix resolves to the
                    # underlying object but defeats every server cache
                    base_path, busted = split_cache_bust(request.path)
                    if busted:
                        obj = self.site.lookup(base_path)
                        cache_bust = obj is not None
                if obj is None:
                    yield from self._send(
                        client, HEADER_BYTES, rtt, weight=admitted, meter=meter
                    )
                    return self._finish(
                        request, arrival, Status.NOT_FOUND, HEADER_BYTES
                    )

                if request.method is Method.POST:
                    status = yield from self._handle_write(
                        request, obj, client, rtt, weight=admitted, meter=meter
                    )
                    return self._finish(request, arrival, status, HEADER_BYTES)

                if request.method is Method.HEAD:
                    response_bytes = HEADER_BYTES
                    yield from self.resources.consume_cpu(
                        self.spec.head_cpu_s, weight=admitted, meter=meter
                    )
                elif obj.dynamic:
                    response_bytes = obj.size_bytes
                    if cache_bust or not (
                        obj.cacheable and self.response_cache.lookup(obj.path)
                    ):
                        yield from self.backend.handle(
                            obj, weight=admitted, meter=meter
                        )
                        if obj.cacheable and not cache_bust:
                            self.response_cache.insert(obj.path, obj.size_bytes)
                else:
                    response_bytes = obj.size_bytes
                    yield from self._fetch_static(
                        obj, cache_bust=cache_bust, weight=admitted, meter=meter
                    )

                yield from self._send(
                    client, response_bytes, rtt, weight=admitted, meter=meter
                )
                return self._finish(request, arrival, Status.OK, response_bytes)
            finally:
                if request_memory > 0:
                    self.resources.free_memory(request_memory)
                held = self.sim.now - worker_from
                self.resources.workers.release(worker)
                self._worker_load_weight -= admitted
                if admitted > 1:
                    self.resources.workers.account((admitted - 1) * held)
                if meter is not None:
                    meter.demand(self.resources.workers, held, admitted)
        finally:
            self.pending_requests -= weight

    def _handle_write(
        self,
        request: HTTPRequest,
        obj: WebObject,
        client: ClientNode,
        rtt: float,
        weight: int = 1,
        meter=None,
    ) -> Generator:
        """The write path (the Upload stage): body receive, backend,
        storage journal, then a headers-only acknowledgement.

        The worker thread is held across the whole sequence — body
        bytes crossing the shared fluid links, the dynamic backend run
        (never cached: writes are side effects), and the disk journal
        of the body — which is exactly the pressure a GET-shaped probe
        can never produce.
        """
        if not obj.dynamic:
            # writes need an application endpoint, not a static file
            yield from self._send(client, HEADER_BYTES, rtt, weight=weight, meter=meter)
            return Status.METHOD_NOT_ALLOWED
        if request.body_bytes > 0:
            # body receive: the fluid links are direction-agnostic
            # shared capacities, so the upload rides the same
            # transfer-plus-thrash-stall path as a response of equal
            # size (a thrashing box stalls both directions alike)
            yield from self._send(
                client, request.body_bytes, rtt, weight=weight, meter=meter
            )
        yield from self.backend.handle(obj, weight=weight, meter=meter)
        if request.body_bytes > 0:
            yield from self.resources.write_disk(
                request.body_bytes, weight=weight, meter=meter
            )
        yield from self._send(client, HEADER_BYTES, rtt, weight=weight, meter=meter)
        return Status.OK

    def _fetch_static(
        self,
        obj: WebObject,
        cache_bust: bool = False,
        weight: int = 1,
        meter=None,
    ) -> Generator:
        """Object cache, then disk; plus per-byte send CPU.

        A cache-busted request never consults or populates the object
        cache: its unique query string makes the response uncacheable,
        so every such request pays the full seek + stream.
        """
        if cache_bust or not self.object_cache.lookup(obj.path):
            yield from self.resources.read_disk(
                obj.size_bytes, weight=weight, meter=meter
            )
            if obj.cacheable and not cache_bust:
                self.object_cache.insert(obj.path, obj.size_bytes)
        send_cpu = self.spec.static_send_cpu_s_per_100kb * (obj.size_bytes / 102_400.0)
        yield from self.resources.consume_cpu(send_cpu, weight=weight, meter=meter)

    def _send(
        self,
        client: ClientNode,
        size_bytes: float,
        rtt: float,
        weight: int = 1,
        meter=None,
    ) -> Generator:
        """Deliver *size_bytes* to the client through the fluid network.

        When a synchronized crowd's responses (or a burst of refused
        503 headers, which reach here with no worker/CPU delay) start
        their transfers at one simulated instant, the network's
        end-of-instant transaction coalesces them into a single
        max-min allocation pass — the per-response call here stays a
        plain :meth:`~repro.net.link.Network.start_transfer` join,
        which is O(path) since the coalescing refactor.

        A cohort delivery (``weight > 1``) rides one weighted
        macro-flow; the representative's client-access hop is replaced
        by the cohort pipe (capacity = weight × member access) so the
        last-mile constraint stays per-member while shared links see
        the crowd's full weight.
        """
        path = client.download_path(self.access_link)
        if weight > 1 and meter is not None and meter.pipe is not None:
            path[-1] = meter.pipe
        yield from self.tcp.download_weighted(
            self.sim, self.network, path, size_bytes, rtt, weight
        )
        if self.spec.accept_thrash_threshold is not None and self._thrashing:
            # uniform loss-recovery stall while the box thrashes
            yield self.spec.accept_thrash_s

    def _finish(
        self,
        request: HTTPRequest,
        arrival: float,
        status: Status,
        bytes_sent: float,
    ) -> HTTPResponse:
        completed = self.sim.now
        self.access_log.log(
            request,
            arrival_time=arrival,
            status=status,
            bytes_sent=bytes_sent,
            completion_time=completed,
        )
        return HTTPResponse(
            request=request,
            status=status,
            bytes_transferred=bytes_sent,
            arrived_at=arrival,
            completed_at=completed,
        )
