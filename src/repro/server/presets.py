"""Server-side scenario presets for the paper's experiments.

Each preset bundles a :class:`~repro.server.resources.ServerSpec`, a
site, the access-link capacity and background-traffic expectations into
a :class:`Scenario`.  The comments document the queueing arithmetic
that puts each scenario's *stopping crowd sizes* in the paper's bands —
the MFC code itself contains none of these numbers.

Queueing rule of thumb used below: when ``n`` synchronized requests hit
a serialized service of ``S`` seconds each, the *median* client waits
about ``(n/2) * S``, so the stage stops near ``n* ≈ 2θ / S``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

from repro.content.site import SiteContent, minimal_site
from repro.net.tcp import mbps
from repro.server.backends import BackendSpec
from repro.server.database import DatabaseSpec
from repro.server.resources import GIB, MIB, ServerSpec


@dataclass(frozen=True)
class Scenario:
    """Server side of one experiment world."""

    name: str
    server_spec: ServerSpec
    site: SiteContent
    server_access_bps: float
    #: background (non-MFC) request rate, requests/second
    background_rps: float = 0.0
    #: >1 builds a load-balanced cluster of identical boxes
    n_servers: int = 1
    notes: str = ""

    def with_background(self, rps: float) -> "Scenario":
        """Copy of this scenario at a different background-traffic rate."""
        return replace(self, background_rps=rps)


def lab_validation_server(backend_kind: str = "mongrel") -> Scenario:
    """§3.2 lab target: Apache 2.2 worker on a 3 GHz P4, 1 GB RAM.

    The Small Query retrieves 50 000 rows and returns <100 B; the Large
    Object is the same 100 KB file for every client.  Choosing
    ``backend_kind="fastcgi"`` reproduces the Figure 6 memory blow-up
    (24 MB inherited image per forked process: ~30 concurrent forks
    overflow the ~700 MB of free RAM and the box starts swapping).
    """
    spec = ServerSpec(
        name=f"lab-{backend_kind}",
        cpu_cores=1,
        cpu_speed=1.0,
        max_workers=256,
        ram_bytes=1.0 * GIB,
        baseline_memory_bytes=300.0 * MIB,
        # the validation box is content-free and well tuned: per-request
        # HTTP work is tiny so only the probed sub-system shows
        request_parse_cpu_s=0.0002,
        db=DatabaseSpec(
            max_connections=100,
            row_scan_rate=2_500_000.0,   # 50k rows ≈ 20 ms of scan
            per_query_overhead_s=0.002,
            query_cache_bytes=16.0 * MIB,
        ),
        backend=BackendSpec(kind=backend_kind, mongrel_dispatch_cpu_s=0.0002),
    )
    site = minimal_site(
        large_object_bytes=100 * 1024,
        query_response_bytes=100.0,
        query_rows=50_000,
    )
    return Scenario(
        name=f"lab-{backend_kind}",
        server_spec=spec,
        site=site,
        # LAN-grade connectivity: clients sit beside the server, so the
        # *server* access link is the only bandwidth constraint
        server_access_bps=mbps(100),
        notes="Figure 5/6 validation target (clients on the same LAN).",
    )


def qtnp_server() -> Scenario:
    """§4.1 QTNP: top-50 site's non-production box, minimal traffic.

    Paper outcomes at θ=100 ms: Base stops at 20–25, Small Query at
    45–55, Large Object NoStop at 55 requests.

    - Base: HEAD work ≈ 9 ms on one core → n* ≈ 2·0.1/0.009 ≈ 22. ✓
    - Small Query: responses are uniquely parameterized, so the query
      cache misses; scans run in parallel across the connection pool,
      so the queueing term is the 6 ms *serialized* contention hop
      (the operators' "known contention point"); with arrival spread
      the median waits ≈ 0.7·(n/2)·6 ms → crosses θ=100 ms near 45–50. ✓
    - Large Object: 1 Gbps access; 55 concurrent 100 KB downloads get
      ≈2.3 MB/s each → ≈45 ms added, < θ. NoStop. ✓
    """
    spec = ServerSpec(
        name="qtnp",
        cpu_cores=1,
        cpu_speed=1.0,
        max_workers=512,
        head_cpu_s=0.009,
        request_parse_cpu_s=0.0005,
        ram_bytes=4.0 * GIB,
        db=DatabaseSpec(
            max_connections=64,
            row_scan_rate=5_000_000.0,
            per_query_overhead_s=0.002,
            query_cache_bytes=16.0 * MIB,
            contention_point_s=0.006,
        ),
        backend=BackendSpec(kind="mongrel", mongrel_pool_size=256),
    )
    site = minimal_site(
        large_object_bytes=150 * 1024,
        query_response_bytes=2_000.0,
        query_rows=10_000,
        n_unique_queries=400,
    )
    return Scenario(
        name="qtnp",
        server_spec=spec,
        site=site,
        server_access_bps=mbps(1000),
        background_rps=0.05,  # "handling minimal traffic"
        notes="Table 1 target.",
    )


def qtp_cluster() -> Scenario:
    """§4.1 QTP: 16 multiprocessor servers, load-balanced, NoStop.

    "We did not observe even a 10 ms increase in the median response
    time" with 375 concurrent requests — each box sees ≤ ~24 of them.
    """
    spec = ServerSpec(
        name="qtp",
        cpu_cores=8,
        cpu_speed=2.0,
        max_workers=1024,
        head_cpu_s=0.002,
        request_parse_cpu_s=0.0002,
        ram_bytes=16.0 * GIB,
        db=DatabaseSpec(
            max_connections=512,
            row_scan_rate=20_000_000.0,
            per_query_overhead_s=0.001,
            query_cache_bytes=256.0 * MIB,
        ),
        backend=BackendSpec(kind="mongrel", mongrel_pool_size=512),
    )
    site = minimal_site(
        large_object_bytes=150 * 1024,
        query_response_bytes=2_000.0,
        query_rows=10_000,
        n_unique_queries=800,
    )
    return Scenario(
        name="qtp",
        server_spec=spec,
        site=site,
        server_access_bps=mbps(10_000),
        background_rps=20.0,  # ~3M requests over a multi-hour window
        n_servers=16,
        notes="Table 2 target (production data center).",
    )


def univ1_server() -> Scenario:
    """§4.2 Univ-1: small European research-group server.

    Paper outcomes at θ=100 ms: Base and Small Query stop at ~5 (the
    earliest measurable crowd), Large Object at 25 — "poorly
    provisioned in general, with bandwidth being provisioned better
    than the rest of the infrastructure".

    - Base: HEAD ≈ 60 ms of CPU → n* ≈ 3, i.e. below the minimum
      measurable crowd; the analysis reports the earliest epoch. ✓
    - Large Object: 150 Mbps; added time for the median of n flows on a
      19 MB/s link ≈ (n−1)·100 KB/19 MB/s → crosses 100 ms near 20–25. ✓
    """
    spec = ServerSpec(
        name="univ1",
        cpu_cores=1,
        cpu_speed=0.5,
        max_workers=64,
        head_cpu_s=0.030,           # /0.5 speed → 60 ms effective
        request_parse_cpu_s=0.004,
        ram_bytes=0.5 * GIB,
        baseline_memory_bytes=200.0 * MIB,
        db=DatabaseSpec(
            max_connections=10,
            row_scan_rate=500_000.0,
            per_query_overhead_s=0.010,
            query_cache_bytes=0.0,
        ),
        backend=BackendSpec(kind="fastcgi", fastcgi_process_bytes=8.0 * MIB),
    )
    site = minimal_site(
        large_object_bytes=120 * 1024,
        query_response_bytes=3_000.0,
        query_rows=20_000,
    )
    return Scenario(
        name="univ1",
        server_spec=spec,
        site=site,
        server_access_bps=mbps(150),
        background_rps=0.15,  # paper: "about 0.15 requests/sec"
        notes="§4.2 Univ-1; MFC was 51% of all traffic during the run.",
    )


def univ2_server() -> Scenario:
    """§4.2 Univ-2: CS-department server on a 1 Gbps link whose
    years-old software configuration serializes request handling.

    Paper outcome at θ=250 ms (MFC-mr): *every* stage — including Large
    Object, despite the 1 Gbps link — stops (or shows 150–200 ms
    degradation) at crowd sizes 110–150.  Two mechanisms line up there:

    - one core at ≈ 4.3 ms of serialized per-request CPU → the median
      of n synchronized requests waits ≈ 0.7·(n/2)·4.3 ms, crossing
      250 ms near 130–160 (and sitting at 150–200 ms around 110–130,
      exactly the paper's near-threshold observation);
    - a sticky thrash artifact triggers when >115 connections arrive
      within a second: every response then pays a ~400 ms loss-recovery
      stall, so each stage — Large Object included, despite the healthy
      link — stops at the first crowd past 115 (step 10 → 120).
    """
    spec = ServerSpec(
        name="univ2",
        cpu_cores=1,
        cpu_speed=1.0,
        max_workers=300,
        head_cpu_s=0.0035,
        request_parse_cpu_s=0.0008,
        ram_bytes=2.0 * GIB,
        accept_thrash_threshold=115,
        accept_thrash_s=0.4,
        db=DatabaseSpec(
            max_connections=64,
            row_scan_rate=4_000_000.0,
            per_query_overhead_s=0.002,
            query_cache_bytes=32.0 * MIB,
        ),
        backend=BackendSpec(
            kind="mongrel", mongrel_pool_size=128, mongrel_dispatch_cpu_s=0.0012
        ),
    )
    site = minimal_site(
        large_object_bytes=200 * 1024,
        query_response_bytes=4_000.0,
        query_rows=8_000,
        n_unique_queries=400,
    )
    return Scenario(
        name="univ2",
        server_spec=spec,
        site=site,
        server_access_bps=mbps(1000),
        background_rps=3.5,  # paper: 2.9-4.2 requests/s across runs
        notes="Table 3(a) target.",
    )


def univ3_server() -> Scenario:
    """§4.2 Univ-3: 1.5 GHz Sun V240; adequate HTTP handling, abundant
    bandwidth, but poor query handling — the legacy stack "was not
    caching responses appropriately".

    Paper outcomes at θ=250 ms (MFC-mr): Small Query stops at 30 in all
    three runs; Base stops at 90–110 under morning/afternoon background
    (12.5–20.3 req/s) and NoStops late evening; Large Object NoStops.

    - Small Query: no response caching; a 200 ms scan through an
      8-connection pool → at n=30 the median query queues ≈
      (30/16)·200 ≈ 375 ms > θ; at 20 it sits near the threshold. ✓
    - Base: HEAD ≈ 4.5 ms effective → n* ≈ 2·0.25/0.0045 ≈ 110;
      morning background consumes headroom and moves the stop down. ✓
    """
    spec = ServerSpec(
        name="univ3",
        cpu_cores=1,
        cpu_speed=0.8,              # 1.5 GHz SPARC vs the 3 GHz P4 baseline
        max_workers=256,
        head_cpu_s=0.0036,          # /0.8 → 4.5 ms effective
        request_parse_cpu_s=0.0008,
        ram_bytes=2.0 * GIB,
        db=DatabaseSpec(
            max_connections=8,
            row_scan_rate=250_000.0,   # 50k rows ≈ 200 ms of scan
            per_query_overhead_s=0.005,
            query_cache_bytes=0.0,
        ),
        backend=BackendSpec(kind="mongrel", mongrel_pool_size=64),
    )
    site = minimal_site(
        large_object_bytes=150 * 1024,
        query_response_bytes=5_000.0,
        query_rows=50_000,
        n_unique_queries=400,
    )
    return Scenario(
        name="univ3",
        server_spec=spec,
        site=site,
        server_access_bps=mbps(1000),
        background_rps=16.0,  # paper: 12.5–20.3 requests/s by time of day
        notes="Table 3(b) target; sweep background_rps for the daily cycle.",
    )


def cdn_flash_sale() -> Scenario:
    """A flash-sale storefront with its static weight CDN-offloaded.

    Modern counterpart to the paper's targets: the Large Object lives
    on a CDN, so the origin only sees a *small* "large" object (the
    ~110 KB dynamic landing page — just over the stage's 100 KB bound)
    on a fat 2 Gbps origin link → Large Object NoStops.  The constraint
    is the checkout query: uniquely parameterized (cart tokens defeat
    the response cache) with a 12 ms serialized inventory-row lock.
    Rule of thumb: median of n synchronized checkouts waits
    ≈ 0.7·(n/2)·12 ms → crosses θ=100 ms near n* ≈ 24.
    """
    spec = ServerSpec(
        name="cdn-flash-sale",
        cpu_cores=4,
        cpu_speed=2.0,
        max_workers=1024,
        head_cpu_s=0.001,
        request_parse_cpu_s=0.0002,
        ram_bytes=8.0 * GIB,
        db=DatabaseSpec(
            max_connections=128,
            row_scan_rate=10_000_000.0,
            per_query_overhead_s=0.001,
            query_cache_bytes=64.0 * MIB,
            contention_point_s=0.012,   # inventory-row lock hop
        ),
        backend=BackendSpec(kind="mongrel", mongrel_pool_size=256),
    )
    site = minimal_site(
        large_object_bytes=110 * 1024,   # origin-served landing page
        query_response_bytes=1_500.0,
        query_rows=2_000,
        n_unique_queries=600,            # per-cart checkout URLs
    )
    return Scenario(
        name="cdn-flash-sale",
        server_spec=spec,
        site=site,
        server_access_bps=mbps(2000),
        background_rps=8.0,              # pre-sale browsing traffic
        notes="CDN-offloaded storefront; checkout lock is the constraint.",
    )


def api_microservice() -> Scenario:
    """An API-heavy small-query microservice behind a modest gateway.

    Every response is a small JSON document; there is no Large Object
    at all (the site's biggest file is the 40 KB SDK bundle, below the
    100 KB bound, so the stage is skipped at profiling time).  Queries
    are cheap (5k rows at 8M rows/s ≈ 0.6 ms) but uncached and funneled
    through a small 16-connection pool; with a 4 ms per-query overhead
    the median of n synchronized calls queues ≈ 0.7·(n/2)·4.6 ms →
    crosses θ=100 ms near n* ≈ 60.  Base (HEAD ≈ 1 ms) holds past 150.
    """
    spec = ServerSpec(
        name="api-micro",
        cpu_cores=2,
        cpu_speed=1.5,
        max_workers=512,
        head_cpu_s=0.001,
        request_parse_cpu_s=0.0003,
        ram_bytes=4.0 * GIB,
        db=DatabaseSpec(
            max_connections=16,
            row_scan_rate=8_000_000.0,
            per_query_overhead_s=0.004,
            query_cache_bytes=0.0,       # per-token responses, no cache
        ),
        backend=BackendSpec(kind="mongrel", mongrel_pool_size=128),
    )
    site = minimal_site(
        large_object_bytes=40 * 1024,    # SDK bundle: below the LO bound
        query_response_bytes=900.0,
        query_rows=5_000,
        n_unique_queries=500,
    )
    return Scenario(
        name="api-micro",
        server_spec=spec,
        site=site,
        server_access_bps=mbps(500),
        background_rps=12.0,             # steady API callers
        notes="Query-pool constrained JSON API; no Large Object stage.",
    )


def budget_vps() -> Scenario:
    """A swap-constrained budget VPS running a forked-CGI blog stack.

    512 MB of RAM with a 350 MB resident baseline leaves ~160 MB of
    headroom; each FastCGI fork inherits a 20 MB image, so ~8 synchro-
    nized queries push the box into swap and *every* service time is
    multiplied by the swap factor — the paper's Figure 6 cliff, here as
    the steady state of an underprovisioned box rather than a lab
    artifact.  Small Query collapses in the low teens and Base follows
    near 20 (slow CPU + swap); Large Object NoStops — static GETs fork
    nothing, and bandwidth is the one resource a budget VPS gets in
    abundance.
    """
    spec = ServerSpec(
        name="budget-vps",
        cpu_cores=1,
        cpu_speed=0.6,
        max_workers=48,
        head_cpu_s=0.004,
        request_parse_cpu_s=0.002,
        ram_bytes=0.5 * GIB,
        baseline_memory_bytes=350.0 * MIB,
        swap_bytes=1.0 * GIB,
        swap_slowdown=25.0,
        db=DatabaseSpec(
            max_connections=12,
            row_scan_rate=800_000.0,
            per_query_overhead_s=0.006,
            query_cache_bytes=0.0,
        ),
        backend=BackendSpec(
            kind="fastcgi",
            fastcgi_process_bytes=20.0 * MIB,
            fastcgi_fork_cpu_s=0.006,
        ),
    )
    site = minimal_site(
        large_object_bytes=130 * 1024,
        query_response_bytes=2_500.0,
        query_rows=15_000,
    )
    return Scenario(
        name="budget-vps",
        server_spec=spec,
        site=site,
        server_access_bps=mbps(100),
        background_rps=0.3,
        notes="Swap-constrained VPS; FastCGI forks hit the memory cliff.",
    )


def all_cooperating_scenarios() -> List[Scenario]:
    """The §4 scenario set, in paper order."""
    return [
        qtnp_server(),
        qtp_cluster(),
        univ1_server(),
        univ2_server(),
        univ3_server(),
    ]
