"""Serializable fault plans.

A :class:`FaultSpec` is a tuple of :class:`FaultEvent` windows, each
describing one failure mode active over ``[start_s, start_s +
duration_s)`` of simulated time.  Both types are registered with the
world codec (by :mod:`repro.worlds.registry`, keeping this module free
of any worlds-layer import) so a fault plan can ride a
:class:`~repro.worlds.spec.WorldSpec` through JSON, job keys, and the
campaign cache.

Fault kinds
-----------

``client-dropout``
    Affected clients go dark: they stop answering liveness probes,
    ignore commands, and issue no requests.  They rejoin when the
    window closes.
``blackhole``
    Affected clients' requests vanish (with probability ``prob``); the
    client's kill timer fires after ``request_timeout_s`` and the
    request is reported as a client-side timeout.
``stall``
    Affected clients' requests are delayed ``delay_s`` before the
    handshake starts — a middlebox holding the SYN.
``reset``
    Affected clients' requests die with a connection reset after one
    round trip (with probability ``prob``).
``report-loss``
    Affected clients' measurement reports are dropped on the control
    channel (with probability ``prob``); the request itself completes.
``server-crash``
    Every server crashes at ``start_s`` — in-flight and new requests
    hang unanswered — and restarts with cold caches when the window
    closes.
``latency-storm``
    Affected clients' round-trip times are multiplied by ``factor`` —
    a routing event or congestion storm on the access path.
``bandwidth-flap``
    The server access link's capacity is divided by ``factor`` for the
    window, then restored.

All randomness (which clients a fractional event hits, per-request
``prob`` draws) comes from the world's ``"faults"`` RNG stream, so the
same seed and the same plan reproduce an identical run — and fault-free
worlds never touch the stream at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

CLIENT_DROPOUT = "client-dropout"
BLACKHOLE = "blackhole"
STALL = "stall"
RESET = "reset"
REPORT_LOSS = "report-loss"
SERVER_CRASH = "server-crash"
LATENCY_STORM = "latency-storm"
BANDWIDTH_FLAP = "bandwidth-flap"

#: every fault kind a :class:`FaultEvent` may carry
FAULT_KINDS = (
    CLIENT_DROPOUT,
    BLACKHOLE,
    STALL,
    RESET,
    REPORT_LOSS,
    SERVER_CRASH,
    LATENCY_STORM,
    BANDWIDTH_FLAP,
)

#: kinds that target a (possibly fractional) subset of the client fleet
CLIENT_SCOPED_KINDS = frozenset(
    {CLIENT_DROPOUT, BLACKHOLE, STALL, RESET, REPORT_LOSS, LATENCY_STORM}
)


@dataclass(frozen=True)
class FaultEvent:
    """One fault window: *kind* active over ``[start_s, start_s + duration_s)``."""

    kind: str
    start_s: float
    duration_s: float
    #: fraction of the client fleet affected (client-scoped kinds only)
    fraction: float = 1.0
    #: per-request / per-report trigger probability while the window is open
    prob: float = 1.0
    #: extra pre-handshake delay for ``stall``
    delay_s: float = 0.0
    #: RTT multiplier (``latency-storm``) or capacity divisor (``bandwidth-flap``)
    factor: float = 1.0

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def active_at(self, now: float) -> bool:
        return self.start_s <= now < self.end_s

    def validate(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {sorted(FAULT_KINDS)}"
            )
        if self.start_s < 0:
            raise ValueError(f"fault start_s must be >= 0, got {self.start_s}")
        if self.duration_s <= 0:
            raise ValueError(f"fault duration_s must be > 0, got {self.duration_s}")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"fault fraction must be in (0, 1], got {self.fraction}")
        if not 0.0 < self.prob <= 1.0:
            raise ValueError(f"fault prob must be in (0, 1], got {self.prob}")
        if self.kind == STALL and self.delay_s <= 0:
            raise ValueError("stall fault requires delay_s > 0")
        if self.kind in (LATENCY_STORM, BANDWIDTH_FLAP) and self.factor <= 1.0:
            raise ValueError(f"{self.kind} fault requires factor > 1, got {self.factor}")
        if self.kind not in CLIENT_SCOPED_KINDS and self.fraction != 1.0:
            raise ValueError(f"{self.kind} fault is not client-scoped; leave fraction=1")


@dataclass(frozen=True)
class FaultSpec:
    """A complete fault plan: the events injected into one world."""

    events: Tuple[FaultEvent, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not isinstance(self.events, tuple):
            object.__setattr__(self, "events", tuple(self.events))

    def validate(self) -> None:
        if not self.events:
            raise ValueError("FaultSpec must carry at least one event (or use faults=None)")
        for event in self.events:
            event.validate()

    def merged_with(self, other: "FaultSpec") -> "FaultSpec":
        return FaultSpec(events=self.events + other.events)


def _preset(*events: FaultEvent) -> Callable[[], FaultSpec]:
    def make() -> FaultSpec:
        return FaultSpec(events=events)

    return make


#: name → zero-arg factory of a shipped fault plan (``repro run --faults NAME``).
#: Windows are placed to overlap the measurement phase of a typical
#: experiment (liveness + base measurement run first, epochs follow at
#: roughly 12–20 s each); transient plans close again so the check
#: phase can observe recovery.
FAULT_PRESETS: Dict[str, Callable[[], FaultSpec]] = {
    "dropout": _preset(
        FaultEvent(kind=CLIENT_DROPOUT, start_s=30.0, duration_s=600.0, fraction=0.3)
    ),
    "blackhole": _preset(
        FaultEvent(kind=BLACKHOLE, start_s=40.0, duration_s=300.0, fraction=0.25)
    ),
    "stall": _preset(
        FaultEvent(kind=STALL, start_s=60.0, duration_s=120.0, fraction=0.5, delay_s=0.25)
    ),
    "reset": _preset(
        FaultEvent(kind=RESET, start_s=50.0, duration_s=200.0, fraction=0.3, prob=0.5)
    ),
    "report-loss": _preset(
        FaultEvent(kind=REPORT_LOSS, start_s=0.0, duration_s=1e9, prob=0.3)
    ),
    "crash": _preset(FaultEvent(kind=SERVER_CRASH, start_s=90.0, duration_s=45.0)),
    "storm": _preset(
        FaultEvent(kind=LATENCY_STORM, start_s=60.0, duration_s=90.0, factor=8.0)
    ),
    "flap": _preset(
        FaultEvent(kind=BANDWIDTH_FLAP, start_s=80.0, duration_s=90.0, factor=8.0)
    ),
}


def fault_spec_from_names(names) -> FaultSpec:
    """Merge named presets (``repro run --faults a --faults b``) into one plan."""

    spec = FaultSpec(events=())
    for name in names:
        try:
            preset = FAULT_PRESETS[name]
        except KeyError:
            raise ValueError(
                f"unknown fault preset {name!r}; expected one of {sorted(FAULT_PRESETS)}"
            ) from None
        spec = spec.merged_with(preset())
    spec.validate()
    return spec
