"""Constraint inference from stage outcomes.

MFC is a black box probe: what it can conclude is *sub-system-level*
provisioning verdicts (paper §3.3) plus comparative diagnoses of the
kind the cooperating-site operators found valuable:

- Base stopped, Large Object NoStop → the problem is request handling,
  not bandwidth (the Univ-3 "frustrated video downloader" diagnosis);
- Small Query stops far below the other stages → constrained back-end
  data processing (and §6: high vulnerability to the simplest
  application-level DDoS);
- every stage stops at about the same crowd → a serialization or
  software-configuration artifact rather than any single hardware
  resource (the Univ-2 signature).

The stage→sub-system mapping comes from the probe-stage registry:
every registered :class:`~repro.core.stages.ProbeStage` declares the
resource it targets, so a new stage produces constraint verdicts
without touching this module.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import MFCConfig
from repro.core.records import MFCResult, StageOutcome, StageResult
from repro.core.stages import DEFAULT_STAGE_NAMES, STAGES, StageKind
from repro.net.tcp import TcpModel
from repro.server.http import HEADER_BYTES


class Provisioning(enum.Enum):
    """Per-sub-system verdict."""

    CONSTRAINED = "constrained"
    ADEQUATE = "adequate"            # NoStop up to the tested crowd
    UNKNOWN = "unknown"              # stage skipped/aborted
    #: the stage ran to an outcome, but its hardening annotations
    #: (report attrition, retried epochs) say the sample is too thin to
    #: trust either way — explicitly not a guess
    INCONCLUSIVE = "inconclusive"


#: downgrade a stage verdict to INCONCLUSIVE once this fraction of its
#: scheduled reports went missing in some accepted epoch at a
#: statistically significant crowd: the surviving sample may be biased
#: toward whichever clients stayed reachable, and near the knee the
#: thinned quantile jitters across θ
ATTRITION_INCONCLUSIVE = 0.25

#: downgrade a stage verdict to INCONCLUSIVE once the stage's observed
#: sample noise (worst negative clean-epoch aggregate) reaches this
#: fraction of θ: a knee call on top of noise spikes rivaling the
#: threshold is a coin flip, not a measurement
NOISE_INCONCLUSIVE = 0.5

#: two stopping sizes within this ratio count as "the same crowd size"
#: for the serialization diagnosis
SIMILAR_STOP_RATIO = 1.4


def subsystem_for(stage_name: str) -> str:
    """The sub-system a stage probes (registry-declared; §2.2.2 for
    the paper's three).  Unregistered names report as themselves."""
    stage = STAGES.get(stage_name)
    return stage.resource if stage is not None else stage_name


@dataclass
class ConstraintReport:
    """Everything MFC can say about one target."""

    target_name: str
    verdicts: Dict[str, Provisioning] = field(default_factory=dict)
    stopping_sizes: Dict[str, Optional[int]] = field(default_factory=dict)
    #: free-text comparative diagnoses
    diagnoses: List[str] = field(default_factory=list)
    #: §6: sub-systems ordered most-vulnerable-first for DDoS analysis
    ddos_vulnerability_order: List[str] = field(default_factory=list)

    def verdict_for(self, stage_name: str) -> Provisioning:
        """Verdict for one stage's sub-system."""
        return self.verdicts.get(stage_name, Provisioning.UNKNOWN)

    def summary(self) -> str:
        """Readable multi-line report."""
        lines = [f"Constraint report for {self.target_name}"]
        for stage_name, verdict in self.verdicts.items():
            subsystem = subsystem_for(stage_name)
            stop = self.stopping_sizes.get(stage_name)
            detail = f"stops at {stop}" if stop is not None else "no stop observed"
            lines.append(f"  {subsystem:<28} {verdict.value:<12} ({detail})")
        for diagnosis in self.diagnoses:
            lines.append(f"  * {diagnosis}")
        if self.ddos_vulnerability_order:
            lines.append(
                "  DDoS exposure (most vulnerable first): "
                + " > ".join(self.ddos_vulnerability_order)
            )
        return "\n".join(lines)


def _verdict(stage: StageResult) -> Provisioning:
    if stage.outcome in (StageOutcome.STOPPED, StageOutcome.NO_STOP):
        if stage.max_missing_fraction >= ATTRITION_INCONCLUSIVE:
            # enough reports vanished that the surviving sample may be
            # biased: report "we could not tell", never a guess
            return Provisioning.INCONCLUSIVE
        if stage.signal_noise_fraction >= NOISE_INCONCLUSIVE:
            # the stage's sample noise rivals θ: a spike can fake a
            # knee and a dip can mask one, in either direction
            return Provisioning.INCONCLUSIVE
        if (
            stage.outcome is StageOutcome.NO_STOP
            and stage.truncated_crowd_cap is not None
        ):
            # client attrition shrank the crowd cap mid-stage: the
            # stage only proved "no stop up to the shrunken cap",
            # which may sit below the site's real knee
            return Provisioning.INCONCLUSIVE
        return (
            Provisioning.CONSTRAINED
            if stage.outcome is StageOutcome.STOPPED
            else Provisioning.ADEQUATE
        )
    return Provisioning.UNKNOWN


def infer_constraints(result: MFCResult) -> ConstraintReport:
    """Derive the constraint report from an experiment result."""
    report = ConstraintReport(target_name=result.target_name)
    if result.aborted:
        report.diagnoses.append(f"experiment aborted: {result.abort_reason}")
        return report

    for name, stage in result.stages.items():
        report.verdicts[name] = _verdict(stage)
        report.stopping_sizes[name] = stage.stopping_crowd_size
        if report.verdicts[name] is Provisioning.INCONCLUSIVE:
            if stage.max_missing_fraction >= ATTRITION_INCONCLUSIVE:
                report.diagnoses.append(
                    f"{name}: inconclusive — lost "
                    f"{stage.max_missing_fraction:.0%} of scheduled reports "
                    "in an accepted epoch; the outcome is not trusted "
                    "either way."
                )
            elif stage.signal_noise_fraction >= NOISE_INCONCLUSIVE:
                report.diagnoses.append(
                    f"{name}: inconclusive — sample noise reached "
                    f"{stage.signal_noise_fraction:.0%} of the degradation "
                    "threshold; a knee call on this stage would be a coin "
                    "flip."
                )
            else:
                report.diagnoses.append(
                    f"{name}: inconclusive — attrition cut the feasible "
                    f"crowd to {stage.truncated_crowd_cap}; a NoStop below "
                    "the intended cap is not evidence of adequacy."
                )
        elif stage.outcome is StageOutcome.ABORTED and stage.reason:
            report.diagnoses.append(f"{name}: aborted — {stage.reason}")

    # comparative diagnoses read the (possibly downgraded) verdicts, so
    # an inconclusive or aborted stage never anchors a diagnosis
    def _stopped(name: str) -> bool:
        return report.verdicts.get(name) is Provisioning.CONSTRAINED

    def _no_stop(name: str) -> bool:
        return report.verdicts.get(name) is Provisioning.ADEQUATE

    query = result.stages.get(StageKind.SMALL_QUERY.value)
    upload = result.stages.get("Upload")
    churn = result.stages.get("ConnChurn")
    bust = result.stages.get("CacheBust")

    # Univ-3 style: request handling vs bandwidth disambiguation
    if _stopped(StageKind.BASE.value) and _no_stop(StageKind.LARGE_OBJECT.value):
        report.diagnoses.append(
            "Base degrades while Large Object does not: the constraint is "
            "request handling, not access bandwidth."
        )

    # §6: application-level DDoS exposure via the back end
    if _stopped(StageKind.SMALL_QUERY.value) and _no_stop(
        StageKind.LARGE_OBJECT.value
    ):
        report.diagnoses.append(
            f"back-end data processing keels over at only "
            f"{query.stopping_crowd_size} concurrent queries while bandwidth "
            "absorbs the tested load: highly vulnerable to simple "
            "application-level DDoS attacks on the back end."
        )

    # new-stage comparatives (no-ops for the paper's three-stage runs)

    # storage vs bandwidth: cache-busted reads fold while the cached
    # Large Object recipe absorbs the same crowd
    if _stopped("CacheBust") and _no_stop(StageKind.LARGE_OBJECT.value):
        report.diagnoses.append(
            f"cache-busted reads stop at {bust.stopping_crowd_size} while the "
            "cached Large Object absorbs the tested load: the constraint is "
            "the storage subsystem, masked in steady state by the server "
            "cache."
        )

    # accept path vs request processing
    if _stopped("ConnChurn") and _no_stop(StageKind.BASE.value):
        report.diagnoses.append(
            f"connection churn stops at {churn.stopping_crowd_size} while "
            "plain request handling does not: the accept/FD path, not "
            "request processing, is the constraint."
        )

    # write path vs read-side back end
    if _stopped("Upload") and _no_stop(StageKind.SMALL_QUERY.value):
        report.diagnoses.append(
            f"uploads stop at {upload.stopping_crowd_size} while read "
            "queries absorb the tested load: the write path (body intake, "
            "backend writes, storage journal) is the constraint."
        )

    # Univ-2 style: all stages stop at about the same crowd
    stopped = [
        s.stopping_crowd_size
        for name, s in result.stages.items()
        if _stopped(name) and s.stopping_crowd_size
    ]
    if len(stopped) >= 2 and len(stopped) == len(result.stages):
        lo, hi = min(stopped), max(stopped)
        if hi <= lo * SIMILAR_STOP_RATIO:
            report.diagnoses.append(
                f"every stage stops near crowd size {lo}-{hi} irrespective of "
                "request type: suspect request scheduling, resource "
                "serialization or a software configuration artifact rather "
                "than a single hardware resource."
            )

    # DDoS vulnerability ranking: smaller stopping size = more exposed
    def sort_key(item):
        name, stage = item
        stop = (
            stage.stopping_crowd_size
            if _stopped(name) and stage.stopping_crowd_size
            else float("inf")
        )
        return (stop, name)

    ranked = sorted(result.stages.items(), key=sort_key)
    report.ddos_vulnerability_order = [
        subsystem_for(name) for name, stage in ranked if _stopped(name)
    ]
    return report


# -- two-phase triage: the indicator classifier ------------------------------
#
# The indicator pass (repro.core.indicator) measures a site unloaded;
# this classifier inverts the request-timing model to predict each
# stage's stopping crowd from those features.  One measured request
# decomposes as
#
#     elapsed = 1.5*RTT (handshake)  +  service  +  download,
#
# where the download pays at least the TCP slow-start latency floor
# (0.5*RTT for a header-sized response).  So the base-page HEAD
# isolates the front-end serialized cost S_front = base - 2*RTT, and
# every other probe is priced *relative to the measured base* with the
# slow-start floor of its extra bytes subtracted out.
#
# Crowd arithmetic: when an n-crowd arrives synchronized at a resource
# with serialized per-request cost S, the rank-q client waits about
# q*n*S, so the stage stops when q*n*S >= threshold:
#
#     n* = threshold / (ARRIVAL_SPREAD * q * S).
#
# Two model points matter and are deliberate:
#
# - **Small Query is priced at its steady-state (repeat) cost.**  A
#   crowd's round-robin queries behave like re-fetches after the first
#   wave, so a response-cached stack (repeat ~ base) reads clean no
#   matter how expensive a cold query is, while a stack that pays the
#   back end every time (repeat ~ fresh) is priced by that cost plus
#   the front-end cost every request also serializes through.
# - **Large Object headroom is invisible unloaded.**  An uncontended
#   download is latency-bound by the slow-start floor (~5.5*RTT for a
#   100 KB object), not bandwidth-bound — the very reason the paper
#   needs crowds.  The indicator only *positively* flags bandwidth
#   when the warm-GET excess over the floor clears the noise band;
#   otherwise it defers: ambiguous on any site that is flagged
#   elsewhere (cheap to add to an active probe already happening),
#   clean on a site with no other signal.

#: fraction of a synchronized crowd effectively ahead of the rank-q
#: client on a serialized resource (1.0: the crowd arrives as one
#: synchronized burst, so the rank-q client queues behind q*n others)
ARRIVAL_SPREAD = 1.0
#: smallest serialized-cost estimate we trust (below this the probe's
#: own jitter dominates and the stage reads as unconstrained)
MIN_SERVICE_S = 1e-4
#: a large-object transfer excess must clear this many multiples of
#: the observed base jitter before it counts as a bandwidth signal
EXCESS_JITTER_FACTOR = 3.0
#: a deferred Large Object rides along with the active probe only when
#: some other stage is *strongly* flagged (predicted stop at or below
#: this fraction of the crowd cap) — a weak borderline flag says
#: nothing about bandwidth, and the ride-along is pure probe cost
STRONG_FLAG_FRACTION = 0.30


@dataclass
class TriageVerdict:
    """The indicator classifier's call on one site."""

    target_name: str
    #: "confident" (a constraint is predicted inside the active probe's
    #: crowd range), "ambiguous" (near-threshold: worth validating) or
    #: "clean" (a full probe would report NoStop everywhere)
    label: str
    #: most-constrained sub-system (smallest predicted stop), if any
    constraint: Optional[str] = None
    #: stage -> predicted stopping crowd (None: no stop predicted)
    predicted_stops: Dict[str, Optional[int]] = field(default_factory=dict)
    #: stage -> "flagged" / "ambiguous" / "clean"
    stage_flags: Dict[str, str] = field(default_factory=dict)
    #: stages phase 2 should probe actively: every flagged stage, plus
    #: ambiguous stages whose uncertainty is structural (jitter or no
    #: direct measurement) rather than a trusted over-cap estimate
    probe_stages: Tuple[str, ...] = ()
    #: the ambiguity multiplier this verdict was computed with
    margin: float = 2.0

    def summary(self) -> str:
        """Readable one-screen verdict."""
        lines = [f"Triage verdict for {self.target_name}: {self.label}"]
        for stage, flag in self.stage_flags.items():
            stop = self.predicted_stops.get(stage)
            detail = f"predicted stop ~{stop}" if stop is not None else "no stop"
            lines.append(f"  {stage:<12} {flag:<10} ({detail})")
        if self.probe_stages:
            lines.append("  active follow-up: " + ", ".join(self.probe_stages))
        return "\n".join(lines)


def _extra_floor_s(extra_bytes: Optional[float], rtt_s: float) -> float:
    """Slow-start latency floor a response's body adds over a HEAD."""
    if not extra_bytes or extra_bytes <= 0:
        return 0.0
    model = TcpModel()
    return model.latency_floor_s(
        extra_bytes + HEADER_BYTES, rtt_s
    ) - model.latency_floor_s(HEADER_BYTES, rtt_s)


def _serialized_costs(features) -> Dict[str, Optional[float]]:
    """Per-stage serialized-cost estimates from the raw features.

    ``None`` marks a probe the site's content made ineligible.  Every
    cost is measured relative to the base HEAD, with the slow-start
    floor of the response's extra bytes subtracted, so only genuine
    service time remains.
    """
    rtt = features.rtt_s
    base = features.base_latency_s
    costs: Dict[str, Optional[float]] = {
        "front": max(base - 2.0 * rtt, 0.0),
        "query": None,
        "bust": None,
        "large_excess": None,
    }
    if features.query_repeat_s is not None:
        floor = _extra_floor_s(features.query_bytes, rtt)
        costs["query"] = max(features.query_repeat_s - base - floor, 0.0)
    if features.large_get_s is not None:
        floor = _extra_floor_s(features.large_bytes, rtt)
        costs["large_excess"] = features.large_get_s - base - floor
        if features.bust_get_s is not None:
            costs["bust"] = max(features.bust_get_s - features.large_get_s, 0.0)
    return costs


def classify_indicator(
    indicator_result,
    config: Optional[MFCConfig] = None,
    margin: float = 2.0,
    stage_names: Sequence[str] = DEFAULT_STAGE_NAMES,
) -> TriageVerdict:
    """Map an :class:`~repro.core.indicator.IndicatorResult` to a
    predicted constraint class with a confidence label.

    *margin* widens the ambiguous band: a stage predicted to stop at up
    to ``config.max_crowd * margin`` is still worth an active probe
    (the arithmetic is a rule of thumb, not a simulator).
    """
    config = config if config is not None else MFCConfig()
    features = indicator_result.features
    threshold = config.threshold_s
    max_crowd = float(config.max_crowd)
    costs = _serialized_costs(features)

    # unloaded response-time jitter rivaling the degradation threshold
    # means every per-stage estimate below is noise: validate actively
    jittery = features.base_jitter_s >= threshold

    def crowd_for(service_s: Optional[float], quantile: float) -> Optional[float]:
        if service_s is None or service_s < MIN_SERVICE_S:
            return None
        return threshold / (ARRIVAL_SPREAD * quantile * service_s)

    predicted: Dict[str, Optional[int]] = {}
    flags: Dict[str, str] = {}

    def record(name: str, crowd: Optional[float], clean_ok: bool = True) -> None:
        if crowd is None:
            predicted[name] = None
            flags[name] = "clean" if clean_ok and not jittery else "ambiguous"
            return
        predicted[name] = max(2, int(round(crowd)))
        if crowd <= max_crowd and not jittery:
            flags[name] = "flagged"
        elif crowd <= max_crowd * margin or jittery:
            flags[name] = "ambiguous"
        else:
            flags[name] = "clean"

    deferred_large = False
    for name in stage_names:
        stage = STAGES.get(name)
        quantile = stage.degradation_quantile if stage is not None else 0.5
        if name == StageKind.BASE.value:
            record(name, crowd_for(costs["front"], quantile))
        elif name == StageKind.SMALL_QUERY.value:
            if costs["query"] is None:
                continue  # no small queries: the active probe skips it too
            record(name, crowd_for(costs["front"] + costs["query"], quantile))
        elif name == StageKind.LARGE_OBJECT.value:
            excess = costs["large_excess"]
            if excess is None:
                continue  # no large object: the active probe skips it too
            noise = max(
                EXCESS_JITTER_FACTOR * features.base_jitter_s, MIN_SERVICE_S
            )
            if excess > noise:
                # the path is already bandwidth-tight: n concurrent
                # downloads multiply the excess ~n-fold
                record(name, threshold / excess + 1.0)
            else:
                deferred_large = True  # decided after the other stages
        elif name == "CacheBust":
            if costs["bust"] is None:
                continue
            record(name, crowd_for(costs["front"] + costs["bust"], quantile))
        else:
            # a stage the indicator has no probe for (Upload, ConnChurn,
            # any future registration): never silently call it clean
            record(name, None, clean_ok=False)

    if deferred_large:
        name = StageKind.LARGE_OBJECT.value
        predicted[name] = None
        strongly_flagged = any(
            flag == "flagged"
            and predicted[other] is not None
            and predicted[other] <= max_crowd * STRONG_FLAG_FRACTION
            for other, flag in flags.items()
        )
        flags[name] = "ambiguous" if jittery or strongly_flagged else "clean"

    if any(flag == "flagged" for flag in flags.values()):
        label = "confident"
    elif any(flag == "ambiguous" for flag in flags.values()):
        label = "ambiguous"
    else:
        label = "clean"

    constraint = None
    flagged = [
        (predicted[name], name)
        for name, flag in flags.items()
        if flag == "flagged" and predicted[name] is not None
    ]
    if flagged:
        constraint = subsystem_for(min(flagged)[1])

    return TriageVerdict(
        target_name=indicator_result.target_name,
        label=label,
        constraint=constraint,
        predicted_stops=predicted,
        stage_flags=flags,
        # flagged stages are always probed; an ambiguous stage earns a
        # probe only when the uncertainty is structural — jitter
        # drowning the estimates, or no per-stage measurement at all
        # (deferred LargeObject, stages the indicator has no probe
        # for).  A *directly measured* over-cap estimate is trusted:
        # its band (cap, margin*cap] almost never hides a real stop,
        # and probing it would cost a cap-sized burst per site.
        probe_stages=tuple(
            name
            for name, flag in flags.items()
            if flag == "flagged"
            or (flag == "ambiguous" and (predicted[name] is None or jittery))
        ),
        margin=margin,
    )
