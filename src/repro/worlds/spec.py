"""The declarative world layer: one serializable description per world.

Every experiment in this repository is "assemble a world, run stages,
record outcomes".  :class:`WorldSpec` is the single declarative
description of such a world — server side (a
:class:`~repro.server.presets.Scenario` *or* a named synthetic-server
model), client fleet, topology overrides (shared mid-path bottleneck
capacity, control-channel loss), MFC configuration, stage selection,
resource monitor and background traffic — with canonical JSON
encode/decode (:mod:`repro.worlds.codec`) and a stable SHA-256
identity (:attr:`WorldSpec.spec_hash`).

``WorldSpec.build()`` is the one assembly path, one skeleton for
scenario, indicator and synthetic worlds: campaign world-jobs carry a
spec verbatim, the benchmark harnesses assemble through it, and
``repro run --spec world.json`` turns any JSON document into a
runnable world.  A world is a pure function of its spec: equal hashes
mean byte-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.config import MFCConfig
from repro.core.epochs import PlannerSpec
from repro.core.stages import (
    DEFAULT_STAGE_NAMES,
    StageKind,
    StagePlan,
    stages_named,
    validate_stage_names,
)
from repro.faults.spec import FaultSpec
from repro.server.http import HEADER_BYTES, Method
from repro.server.presets import Scenario
from repro.workload.fleet import FleetSpec
from repro.worlds import codec
from repro.worlds.registry import SYNTHETIC_MODELS

#: nodes used by background traffic (never part of the MFC crowd)
N_BACKGROUND_CLIENTS = 8

#: first fill of a client's stream, in doubles: it draws once per
#: liveness probe, so once in a cohort world and about 20 times under
#: the hardened coordinator's faulted runs
CLIENT_STREAM_CHUNK = 8


@codec.register_spec_type
@dataclass(frozen=True)
class SyntheticSpec:
    """Server side of a §3.1 validation world: a content-free
    :class:`~repro.server.synthetic.SyntheticServer` applying a named
    response-time model from the
    :data:`~repro.worlds.registry.SYNTHETIC_MODELS` registry."""

    #: registry name: ``linear`` / ``exponential`` / ``step`` / ...
    model: str
    #: keyword parameters of the model factory
    params: Dict[str, float] = field(default_factory=dict)
    #: fixed service time below the model's added delay
    base_service_s: float = 0.002
    response_bytes: float = HEADER_BYTES
    server_access_bps: float = 1e9
    #: the one probe object the MFC requests
    probe_path: str = "/probe"

    def validate(self) -> None:
        """Check the model name against the registry."""
        if self.model not in SYNTHETIC_MODELS:
            raise ValueError(
                f"unknown synthetic model {self.model!r}; registered: "
                f"{sorted(SYNTHETIC_MODELS)}"
            )
        if self.server_access_bps <= 0:
            raise ValueError("server access bandwidth must be positive")


def _scenario_servers(sim, scenario: Scenario, topology):
    """The scenario's server boxes and the service clients talk to:
    the one box, or a load-balanced cluster over several."""
    from repro.server.cluster import LoadBalancedCluster
    from repro.server.webserver import SimWebServer

    servers = [
        SimWebServer(
            sim,
            (
                scenario.server_spec
                if scenario.n_servers == 1
                else type(scenario.server_spec)(
                    **{
                        **scenario.server_spec.__dict__,
                        "name": f"{scenario.server_spec.name}-{i}",
                    }
                )
            ),
            scenario.site,
            topology.network,
            topology.server_access,
        )
        for i in range(scenario.n_servers)
    ]
    service = (
        servers[0]
        if scenario.n_servers == 1
        else LoadBalancedCluster(sim, servers)
    )
    return servers, service


@codec.register_spec_type
@dataclass(frozen=True)
class WorldSpec:
    """Declarative description of one experiment world."""

    #: server side — exactly one of *scenario* / *synthetic*
    scenario: Optional[Scenario] = None
    synthetic: Optional[SyntheticSpec] = None
    fleet: FleetSpec = field(default_factory=FleetSpec)
    config: MFCConfig = field(default_factory=MFCConfig)
    seed: int = 0
    #: registry-named probe stages, in run order (any name in
    #: ``repro.core.stages.STAGES``, e.g. "Upload"); None runs the
    #: paper's three stages the site supports
    stages: Optional[Tuple[str, ...]] = None
    #: epoch-progression strategy (None: the paper's linear ramp)
    planner: Optional[PlannerSpec] = None
    #: run the near-free indicator pass (phase 1 of two-phase triage)
    #: instead of MFC stages: a handful of unloaded sequential requests
    #: from one well-connected probe node — no crowd, no coordinator.
    #: Scenario worlds only; ``build()`` returns an
    #: :class:`~repro.core.indicator.IndicatorRunner`.
    indicator: bool = False
    #: attach an ``atop``-style monitor to the (first) server
    monitor_interval_s: Optional[float] = None
    #: loss probability on the coordinator↔client control channel
    control_loss_prob: float = 0.0
    #: ablation knob: dispatch epoch commands without lead-time spreading
    use_naive_scheduling: bool = False
    #: capacity of the fleet's shared mid-path bottleneck (requires
    #: ``fleet.bottleneck_group``; None: half the server access link)
    bottleneck_capacity_bps: Optional[float] = None
    #: override the scenario's background request rate (requests/second)
    background_rps: Optional[float] = None
    #: seed-deterministic fault plan (:mod:`repro.faults`); scenario MFC
    #: worlds only.  Also flips the coordinator into hardened mode
    #: unless ``config.hardening`` says otherwise (see :attr:`hardened`).
    faults: Optional[FaultSpec] = None
    #: crowd simulation mode: "cohort" collapses homogeneous clients into
    #: weighted macro-flows (:mod:`repro.core.cohort`); None (or
    #: "exact", folded to None) runs every crowd client as its own
    #: process and transfer
    crowd_mode: Optional[str] = None
    #: free-form annotation — cosmetic, never hashed
    notes: str = ""

    def __post_init__(self) -> None:
        if self.stages is not None:
            object.__setattr__(self, "stages", tuple(self.stages))
        if self.planner == PlannerSpec():
            # an explicit default-linear planner IS the default: fold it
            # to None so the spec hash (and every campaign job key) of
            # `--planner linear` equals the planner-less world it
            # byte-identically reproduces
            object.__setattr__(self, "planner", None)
        if self.crowd_mode == "exact":
            # likewise: "exact" is the default crowd mode
            object.__setattr__(self, "crowd_mode", None)

    @property
    def hardened(self) -> bool:
        """Whether the coordinator runs the hardened policy:
        ``config.hardening`` when pinned, else exactly when the world
        carries a fault plan."""
        if self.config.hardening is not None:
            return self.config.hardening
        return self.faults is not None

    # -- identity -------------------------------------------------------------

    @property
    def spec_hash(self) -> str:
        """Stable SHA-256 identity of everything that changes execution."""
        return codec.stable_key(self)

    def to_json(self, indent: int = 2) -> str:
        """Human-editable JSON document of this spec."""
        return codec.dumps(self, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "WorldSpec":
        """Inverse of :meth:`to_json` (hash-preserving)."""
        spec = codec.loads(text)
        if not isinstance(spec, cls):
            raise ValueError(
                f"document does not describe a WorldSpec "
                f"(got {type(spec).__name__})"
            )
        return spec

    # -- validation -----------------------------------------------------------

    def validate(self) -> None:
        """Raise on contradictory or incomplete descriptions."""
        if (self.scenario is None) == (self.synthetic is None):
            raise ValueError(
                "world needs exactly one of scenario= or synthetic="
            )
        self.config.validate()
        self.fleet.validate()
        if self.stages is not None:
            validate_stage_names(self.stages)
        if self.planner is not None:
            self.planner.validate()
        if self.crowd_mode not in (None, "exact", "cohort"):
            raise ValueError(
                f"crowd_mode must be 'exact', 'cohort' or None "
                f"(got {self.crowd_mode!r})"
            )
        if self.faults is not None:
            self.faults.validate()
            if self.synthetic is not None:
                raise ValueError(
                    "fault injection targets a scenario world (real "
                    "clients, servers, links); synthetic worlds model "
                    "the server as a response-time curve"
                )
            if self.indicator:
                raise ValueError(
                    "the indicator pass has no coordinator to harden; "
                    "inject faults into full MFC worlds"
                )
        if self.indicator:
            if self.synthetic is not None:
                raise ValueError(
                    "indicator passes probe site content; synthetic worlds "
                    "have none"
                )
            # the one probe node replaces fleet, crowd and coordinator:
            # a world reads only its scenario, seed and background
            conflicting = {
                "stages": self.stages is not None,
                "planner": self.planner is not None,
                "fleet": self.fleet != FleetSpec(),
                "config": self.config != MFCConfig(),
                "control_loss_prob": self.control_loss_prob != 0.0,
                "monitor_interval_s": self.monitor_interval_s is not None,
                "use_naive_scheduling": self.use_naive_scheduling,
                "bottleneck_capacity_bps": self.bottleneck_capacity_bps is not None,
                "crowd_mode": self.crowd_mode is not None,
            }
            extras = sorted(name for name, is_set in conflicting.items() if is_set)
            if extras:
                raise ValueError(
                    "the indicator pass has a fixed probe plan from one "
                    "probe node — no MFC stages, epoch planner, fleet, "
                    f"coordinator or crowd; unsupported: {extras}"
                )
        if self.synthetic is not None:
            self.synthetic.validate()
            unsupported = {
                "monitor_interval_s": self.monitor_interval_s,
                "bottleneck_capacity_bps": self.bottleneck_capacity_bps,
                "background_rps": self.background_rps,
                "stages": self.stages,
                "fleet.bottleneck_group": self.fleet.bottleneck_group,
                # no server pipeline to meter: crowds always run exact
                "crowd_mode": self.crowd_mode,
            }
            extras = sorted(k for k, v in unsupported.items() if v is not None)
            if extras:
                raise ValueError(
                    "synthetic worlds have one fixed probe stage, no site "
                    "content, no background pool and no server pipeline "
                    f"to meter cohorts; unsupported: {extras}"
                )

    # -- assembly -------------------------------------------------------------

    def build(self):
        """Assemble the world: an :class:`~repro.core.runner.MFCRunner`,
        or an :class:`~repro.core.indicator.IndicatorRunner` for an
        indicator world.

        One skeleton serves every kind of world; the kinds differ only
        in the data chosen at each step.  The order of the steps is the
        order of link registration and construction, and link index
        breaks allocator ties, so it is part of the world's identity.
        """
        from repro.core.client import MFCClient
        from repro.core.cohort import CohortCrowd
        from repro.core.coordinator import Coordinator
        from repro.core.indicator import (
            PROBE_ACCESS_BPS,
            PROBE_JITTER,
            PROBE_RTT_S,
            IndicatorRunner,
        )
        from repro.core.profiler import profile_site
        from repro.core.runner import MFCRunner
        from repro.net.topology import ClientSpec, Topology, TopologySpec
        from repro.server.monitor import ResourceMonitor
        from repro.server.synthetic import SyntheticServer
        from repro.sim.kernel import Simulator
        from repro.sim.rng import RNGRegistry
        from repro.workload.background import BackgroundTraffic
        from repro.workload.fleet import build_fleet

        self.validate()
        synth = self.synthetic
        scenario = self.scenario
        if scenario is not None and self.background_rps is not None:
            scenario = scenario.with_background(self.background_rps)

        # 1. streams and kernel
        rngs = RNGRegistry(self.seed)
        sim = Simulator()

        # 2. client side: the crowd (or the indicator's one vantage
        # point: well connected, so its access link never masks
        # server-side provisioning, low jitter, never flaky), then the
        # background nodes every scenario world carries
        if self.indicator:
            crowd = [
                ClientSpec(
                    client_id="probe00",
                    rtt_to_target=PROBE_RTT_S,
                    rtt_to_coord=0.010,
                    access_bps=PROBE_ACCESS_BPS,
                    jitter=PROBE_JITTER,
                )
            ]
        else:
            crowd = build_fleet(self.fleet, rng=rngs.stream("fleet"))
        bg_specs = [
            ClientSpec(
                client_id=f"bg{i:02d}",
                rtt_to_target=0.030 + 0.01 * i,
                rtt_to_coord=0.020,
                access_bps=12.5e6,
                jitter=0.05,
            )
            for i in range(0 if synth is not None else N_BACKGROUND_CLIENTS)
        ]

        # 3. one topology
        bottleneck_group = self.fleet.bottleneck_group
        server_access_bps = (synth or scenario).server_access_bps
        topology = Topology(
            sim,
            TopologySpec(
                server_access_bps=server_access_bps,
                clients=list(crowd) + bg_specs,
                shared_bottlenecks=(
                    {
                        bottleneck_group: (
                            self.bottleneck_capacity_bps
                            if self.bottleneck_capacity_bps is not None
                            else server_access_bps / 2
                        )
                    }
                    if bottleneck_group is not None
                    else {}
                ),
                control_loss_prob=self.control_loss_prob,
            ),
            rngs=rngs.fork("topology"),
        )

        # 4. server side
        if synth is None:
            servers, service = _scenario_servers(sim, scenario, topology)
        else:
            servers = []
            service = SyntheticServer(
                sim,
                SYNTHETIC_MODELS[synth.model](sim, **synth.params),
                topology.network,
                topology.server_access,
                base_service_s=synth.base_service_s,
                response_bytes=synth.response_bytes,
            )

        # 5. clients and background traffic
        clients = [
            MFCClient(
                sim,
                topology.client(spec.client_id),
                service,
                topology.control,
                rng=rngs.replay_stream(
                    "indicator.probe"
                    if self.indicator
                    else f"client.{spec.client_id}",
                    CLIENT_STREAM_CHUNK,
                ),
            )
            for spec in crowd
        ]
        background = (
            None
            if synth is not None
            else BackgroundTraffic(
                sim,
                service,
                scenario.site,
                [topology.client(spec.client_id) for spec in bg_specs],
                rate_rps=scenario.background_rps,
                rng=rngs.stream("background"),
            )
        )

        # 6. the driver: the indicator probe, or a coordinator with its
        # stages, faults and monitor
        profile = None if synth is not None else profile_site(scenario.site)
        world = dict(
            sim=sim,
            topology=topology,
            service=service,
            servers=servers,
            clients=clients,
            background=background,
            profile=profile,
            scenario=scenario,
            world_spec=self,
        )
        if self.indicator:
            return IndicatorRunner(**world)
        injector = None
        if self.faults is not None:
            from repro.faults.inject import FaultInjector

            injector = FaultInjector(
                sim,
                self.faults,
                clients=clients,
                servers=servers,
                network=topology.network,
                access_link=topology.server_access,
                rng=rngs.stream("faults"),
            )
            for client in clients:
                client.fault_gate = injector
        target_name = "synthetic" if synth is not None else scenario.name
        coordinator = Coordinator(
            sim,
            clients,
            topology.control,
            self.config,
            rng=rngs.stream("coordinator"),
            target_name=target_name,
            use_naive_scheduling=self.use_naive_scheduling,
            planner=self.planner,
            hardened=self.hardened,
            cohorts=(
                CohortCrowd(topology.network, rngs.stream("cohort"), target_name)
                if self.crowd_mode == "cohort"
                else None
            ),
        )
        if synth is not None:
            stages = [
                StagePlan(
                    name=StageKind.BASE.value,
                    method=Method.GET,
                    degradation_quantile=0.5,
                    object_paths=(synth.probe_path,),
                )
            ]
        else:
            stages = stages_named(
                self.stages if self.stages is not None else DEFAULT_STAGE_NAMES,
                profile,
            )
        monitor = (
            ResourceMonitor(sim, servers[0], interval_s=self.monitor_interval_s)
            if self.monitor_interval_s is not None
            else None
        )
        return MFCRunner(
            coordinator=coordinator,
            stages=stages,
            monitor=monitor,
            faults=injector,
            **world,
        )
