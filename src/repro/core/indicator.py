"""The indicator pass: a near-free unloaded probe of one world.

Phase 1 of the two-phase triage engine.  Where a full MFC experiment
fires synchronized crowds of increasing size (hundreds to thousands of
requests per site), the indicator pass issues a *handful of sequential
requests from one well-connected vantage point* — no crowd, no
coordinator, no epochs — and extracts cheap features that predict
which constraint classes a full probe would find:

- **base latency + jitter** — repeated HEADs of the base page isolate
  per-request processing time (the Base stage's target);
- **fresh vs repeated query cost** — fetching distinct small-query
  URLs measures back-end generation cost; re-fetching one of them
  separates response-cached stacks (repeat ≈ free) from stacks that
  pay the back end on every request (the Small Query stage's target);
- **first-byte vs transfer split** — a HEAD then warm GETs of the
  largest object separate server time from bytes-on-the-wire, giving
  the effective download bandwidth (the Large Object stage's target);
- **cache-hit signature** — cache-busted GETs of the same object
  bypass every server cache and hit the disk, so the busted-minus-warm
  delta prices the storage subsystem (the CacheBust stage's target).

The features go to :func:`repro.core.inference.classify_indicator`,
which inverts the same queueing arithmetic the scenario presets
document (serialized service cost S → median wait ≈ 0.7·(n/2)·S, and
transfer unit t → added time ≈ (n−1)·t) to predict each stage's
stopping crowd — and therefore whether a full MFC probe is worth its
requests.

``WorldSpec(indicator=True).build()`` returns an
:class:`IndicatorRunner`, whose ``run(time_limit_s)`` contract matches
:class:`~repro.core.runner.MFCRunner` so campaign executors need no
special case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Tuple

from repro.core.client import MFCClient
from repro.core.config import BASE_MEASURE_GAP_S
from repro.core.epochs import median
from repro.core.runner import World
from repro.server.http import CACHE_BUST_MARKER, Method
from repro.sim.process import Process

#: HEAD samples of the base page (median + spread want a few draws)
N_BASE_SAMPLES = 5
#: warm GETs of the large object / repeats of the probed query
N_REPEAT_SAMPLES = 2
#: the probe vantage point is measurement infrastructure, not a flaky
#: PlanetLab node: a well-connected box whose own access link never
#: masks the target's provisioning (a GigE link can observe any
#: server-side bandwidth up to its own capacity)
PROBE_ACCESS_BPS = 125e6
PROBE_RTT_S = 0.040
PROBE_JITTER = 0.02


@dataclass(frozen=True)
class IndicatorFeatures:
    """Cheap features from one unloaded indicator pass.

    ``None`` marks a probe the site's content made ineligible (no
    small query / no large object) — exactly the stages a full MFC
    would skip at profiling time.
    """

    #: sampled probe→target RTT (subtracted as handshake time)
    rtt_s: float
    #: median / spread (max−min) of the base-page HEAD samples
    base_latency_s: float
    base_jitter_s: float
    #: median cold fetch of distinct small-query URLs
    query_fresh_s: Optional[float] = None
    #: median re-fetch of an already-fetched query URL
    query_repeat_s: Optional[float] = None
    query_bytes: Optional[float] = None
    #: how many distinct query URLs the site hosts
    n_query_paths: int = 0
    #: HEAD (first-byte proxy) and median warm GET of the largest object
    large_head_s: Optional[float] = None
    large_get_s: Optional[float] = None
    large_bytes: Optional[float] = None
    #: median cache-busted GET of the same object (storage signature)
    bust_get_s: Optional[float] = None


@dataclass(frozen=True)
class IndicatorResult:
    """What an indicator job returns (and the result store keeps)."""

    target_name: str
    features: IndicatorFeatures
    #: the paper's intrusiveness metric for this pass
    total_requests: int
    started_at: float = 0.0
    ended_at: float = 0.0

    def describe(self) -> str:
        """One-line human summary."""
        f = self.features
        parts = [
            f"base={f.base_latency_s * 1e3:.1f}ms±{f.base_jitter_s * 1e3:.1f}",
        ]
        if f.query_fresh_s is not None:
            parts.append(
                f"query={f.query_fresh_s * 1e3:.1f}ms"
                f"/repeat={f.query_repeat_s * 1e3:.1f}ms"
            )
        if f.large_get_s is not None:
            parts.append(
                f"large={f.large_get_s * 1e3:.1f}ms"
                f"(head={f.large_head_s * 1e3:.1f})"
            )
        if f.bust_get_s is not None:
            parts.append(f"bust={f.bust_get_s * 1e3:.1f}ms")
        return (
            f"indicator({self.target_name}: {', '.join(parts)}; "
            f"{self.total_requests} requests)"
        )


class IndicatorRunner(World):
    """A fully assembled indicator world: one probe client, one site.

    Shares the :class:`~repro.core.runner.World` lifecycle with
    :class:`~repro.core.runner.MFCRunner` (``run(time_limit_s)``), so
    indicator jobs flow through the same pool, store and codec as full
    MFC jobs.
    """

    @property
    def client(self) -> MFCClient:
        """The one probe client."""
        return self.clients[0]

    def _driver(self) -> Process:
        return self.sim.process(self._probe())

    # -- probe plan -----------------------------------------------------------

    def _query_probe_paths(self) -> Tuple[List[str], str]:
        """(cold paths to fetch, path to re-fetch) for the query probe.

        With a pool of distinct query URLs the cold fetches sample the
        *unique-parameterized* entries the Small Query stage would
        round-robin over (skipping index 0, the one entry a shared
        cacheable URL tends to occupy); the repeat re-fetches the first
        cold path to expose response caching.
        """
        paths = [o.path for o in self.profile.small_queries]
        if len(paths) == 1:
            return [paths[0]], paths[0]
        cold = [paths[1], paths[2 % len(paths)]]
        if cold[0] == cold[1]:
            cold = cold[:1]
        return cold, cold[0]

    def _probe(self) -> Generator:
        """Process body: the whole sequential indicator pass."""
        started = self.sim.now
        client = self.client
        gap = BASE_MEASURE_GAP_S
        profile = self.profile

        rtt = yield from client.measure_target_rtt()

        base_samples: List[float] = []
        for _ in range(N_BASE_SAMPLES):
            _status, _nbytes, elapsed = yield from client._issue_once(
                profile.base_page, Method.HEAD
            )
            base_samples.append(elapsed)
            yield gap

        query_fresh = query_repeat = query_bytes = None
        n_query_paths = len(profile.small_queries)
        if profile.has_small_queries:
            cold_paths, repeat_path = self._query_probe_paths()
            cold: List[float] = []
            for path in cold_paths:
                _s, _n, elapsed = yield from client._issue_once(path, Method.GET)
                cold.append(elapsed)
                yield gap
            repeats: List[float] = []
            for _ in range(N_REPEAT_SAMPLES):
                _s, _n, elapsed = yield from client._issue_once(
                    repeat_path, Method.GET
                )
                repeats.append(elapsed)
                yield gap
            query_fresh = median(cold)
            query_repeat = median(repeats)
            query_bytes = profile.small_queries[0].size_bytes

        large_head = large_get = large_bytes = bust_get = None
        if profile.has_large_objects:
            obj = self.profile.large_objects[0]
            large_bytes = obj.size_bytes
            _s, _n, large_head = yield from client._issue_once(
                obj.path, Method.HEAD
            )
            yield gap
            warm: List[float] = []
            for _ in range(N_REPEAT_SAMPLES):
                _s, _n, elapsed = yield from client._issue_once(
                    obj.path, Method.GET
                )
                warm.append(elapsed)
                yield gap
            # the first GET may pay a cold disk read; the warm median is
            # the bandwidth-dominated figure the Large Object stage sees
            large_get = median(warm[1:]) if len(warm) > 1 else warm[0]
            busted: List[float] = []
            for i in range(N_REPEAT_SAMPLES):
                _s, _n, elapsed = yield from client._issue_once(
                    f"{obj.path}{CACHE_BUST_MARKER}probe{i}", Method.GET
                )
                busted.append(elapsed)
                yield gap
            bust_get = median(busted)

        features = IndicatorFeatures(
            rtt_s=rtt,
            base_latency_s=median(base_samples),
            base_jitter_s=max(base_samples) - min(base_samples),
            query_fresh_s=query_fresh,
            query_repeat_s=query_repeat,
            query_bytes=query_bytes,
            n_query_paths=n_query_paths,
            large_head_s=large_head,
            large_get_s=large_get,
            large_bytes=large_bytes,
            bust_get_s=bust_get,
        )
        return IndicatorResult(
            target_name=self.scenario.name,
            features=features,
            total_requests=client.requests_issued,
            started_at=started,
            ended_at=self.sim.now,
        )
