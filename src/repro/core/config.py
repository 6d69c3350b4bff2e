"""MFC experiment configuration: the paper's constants, named.

Defaults follow the large-scale-study settings of §5 (θ = 100 ms,
standard single-request MFC, ≤ 50 requests); the cooperating-site runs
of §4 raise the threshold to 250 ms and use MFC-mr — see
:mod:`repro.core.variants` for those derivations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional


@dataclass(frozen=True)
class MFCConfig:
    """All knobs of one MFC experiment."""

    #: θ — the normalized-response-time degradation threshold (§2.2.3;
    #: 100 ms in the standard MFC, 250 ms for some cooperating sites)
    threshold_s: float = 0.100
    #: crowd-size increment between epochs ("a small value (we choose
    #: this to be 5 or 10 in our experiments)")
    crowd_step: int = 5
    #: first epoch's crowd size
    initial_crowd: int = 5
    #: terminate NoStop once the crowd would exceed this many requests
    #: (the §5 study capped at 50; cooperating sites went to 150+)
    max_crowd: int = 50
    #: below this many participants, medians are not statistically
    #: significant: the coordinator always progresses (§2.3: "We choose
    #: this number to be 15")
    min_significant_crowd: int = 15
    #: abort the whole experiment with fewer live clients (§2.3:
    #: "at least 50 distinct clients")
    min_clients: int = 50
    #: clients must answer the liveness probe within this time
    liveness_timeout_s: float = 1.0
    #: client-side kill timer per request ("Clients timeout 10s after
    #: issuing each HTTP request")
    request_timeout_s: float = 10.0
    #: pause between successive epochs ("separated by ∼10s")
    epoch_gap_s: float = 10.0
    #: extra slack after the epoch gap for report datagrams to land
    report_slack_s: float = 2.0
    #: lead time between scheduling an epoch and its target arrival
    #: instant T (the validation runs used 15 s after the latency
    #: measurements; any value covering the largest command lead works)
    schedule_lead_s: float = 2.0
    #: fraction of clients that must see > θ for the stage to count as
    #: degraded: 0.5 (median) for Base/Small Query, 0.9 for Large
    #: Object (§2.2.3) — per-stage override lives in StagePlan
    degradation_quantile: float = 0.5
    #: run the N−1 / N / N+1 confirmation epochs before stopping
    check_phase: bool = True
    #: parallel connections per client (MFC-mr; §4.1). 1 = standard
    requests_per_client: int = 1
    #: staggered MFC (§6): spread arrivals one request every this many
    #: seconds instead of synchronizing them. None = synchronized
    stagger_interval_s: Optional[float] = None
    #: re-draw the participating clients each epoch (§2.3); disabling
    #: is an ablation knob
    random_client_selection: bool = True
    #: gap between one client's sequential base measurements
    base_measure_gap_s: float = 0.2
    #: run the hardened coordinator policy (:mod:`repro.core.hardening`,
    #: whose thresholds are module constants).  None = automatic:
    #: hardened exactly when the world carries a fault plan
    #: (``WorldSpec.hardened``), so fault-free runs match the seed
    hardening: Optional[bool] = None

    def validate(self) -> None:
        """Sanity-check the knob values."""
        if self.threshold_s <= 0:
            raise ValueError("threshold must be positive")
        if self.crowd_step < 1 or self.initial_crowd < 1:
            raise ValueError("crowd sizes must be positive")
        if self.max_crowd < self.initial_crowd:
            raise ValueError("max_crowd must be >= initial_crowd")
        if self.min_clients < 1:
            raise ValueError("min_clients must be positive")
        if self.requests_per_client < 1:
            raise ValueError("requests_per_client must be >= 1")
        if not 0 < self.degradation_quantile <= 1:
            raise ValueError("degradation_quantile must be in (0, 1]")
        if self.stagger_interval_s is not None and self.stagger_interval_s < 0:
            raise ValueError("stagger interval cannot be negative")
        if self.request_timeout_s <= 0 or self.epoch_gap_s < 0:
            raise ValueError("timing knobs must be positive")

    def with_(self, **overrides) -> "MFCConfig":
        """Functional update (validated)."""
        updated = replace(self, **overrides)
        updated.validate()
        return updated


#: the §4 cooperating-site configuration (θ=250 ms, larger crowds)
COOPERATING_SITE_THRESHOLD_S = 0.250
