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

``WorldSpec.build()`` is the one assembly path: ``MFCRunner.build``
delegates here, campaign world-jobs carry a spec verbatim, the
benchmark harnesses assemble through it, and ``repro run --spec
world.json`` turns any JSON document into a runnable world.  A world
is a pure function of its spec: equal hashes mean byte-identical
results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.config import MFCConfig
from repro.core.epochs import PlannerSpec
from repro.core.stages import (
    DEFAULT_STAGE_NAMES,
    StageKind,
    stages_named,
    validate_stage_names,
)
from repro.faults.spec import FaultSpec
from repro.server.http import HEADER_BYTES
from repro.server.presets import Scenario
from repro.workload.fleet import FleetSpec
from repro.worlds import codec
from repro.worlds.registry import SYNTHETIC_MODELS

#: nodes used by background traffic (never part of the MFC crowd)
N_BACKGROUND_CLIENTS = 8


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


def _background_client_specs():
    """The background-traffic nodes every scenario world carries."""
    from repro.net.topology import ClientSpec

    return [
        ClientSpec(
            client_id=f"bg{i:02d}",
            rtt_to_target=0.030 + 0.01 * i,
            rtt_to_coord=0.020,
            access_bps=12.5e6,
            jitter=0.05,
        )
        for i in range(N_BACKGROUND_CLIENTS)
    ]


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
@dataclass
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
    #: weighted macro-flows (:mod:`repro.core.cohort`); "exact" or None
    #: runs every crowd client as its own process and transfer
    crowd_mode: Optional[str] = None
    #: free-form annotation — cosmetic, never hashed
    notes: str = ""

    def __post_init__(self) -> None:
        if self.stages is not None:
            self.stages = tuple(self.stages)
        if self.planner == PlannerSpec():
            # an explicit default-linear planner IS the default: fold it
            # to None so the spec hash (and every campaign job key) of
            # `--planner linear` equals the planner-less world it
            # byte-identically reproduces
            self.planner = None

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
            conflicting = {
                "stages": self.stages,
                "planner": self.planner,
            }
            extras = sorted(k for k, v in conflicting.items() if v is not None)
            if extras:
                raise ValueError(
                    "the indicator pass has a fixed probe plan — no MFC "
                    f"stages, no epoch planner; unsupported: {extras}"
                )
        if self.synthetic is not None:
            self.synthetic.validate()
            unsupported = {
                "monitor_interval_s": self.monitor_interval_s,
                "bottleneck_capacity_bps": self.bottleneck_capacity_bps,
                "background_rps": self.background_rps,
                "stages": self.stages,
                "fleet.bottleneck_group": self.fleet.bottleneck_group,
            }
            extras = sorted(k for k, v in unsupported.items() if v is not None)
            if extras:
                raise ValueError(
                    "synthetic worlds have one fixed probe stage, no site "
                    f"content and no background pool; unsupported: {extras}"
                )

    # -- assembly -------------------------------------------------------------

    def build(self):
        """Assemble the world; returns a ready-to-run ``MFCRunner``."""
        self.validate()
        if self.synthetic is not None:
            return self._build_synthetic()
        if self.indicator:
            return self._build_indicator()
        return self._build_scenario()

    def _build_scenario(self):
        from repro.core.client import MFCClient
        from repro.core.coordinator import Coordinator
        from repro.core.profiler import profile_site
        from repro.core.runner import MFCRunner
        from repro.net.topology import Topology, TopologySpec
        from repro.server.monitor import ResourceMonitor
        from repro.sim.kernel import Simulator
        from repro.sim.rng import RNGRegistry
        from repro.workload.background import BackgroundTraffic
        from repro.workload.fleet import build_fleet

        scenario = self.scenario
        if self.background_rps is not None:
            scenario = scenario.with_background(self.background_rps)
        rngs = RNGRegistry(self.seed)
        sim = Simulator()

        fleet = build_fleet(self.fleet, rng=rngs.stream("fleet"))
        bg_specs = _background_client_specs()
        topo_spec = TopologySpec(
            server_access_bps=scenario.server_access_bps,
            clients=list(fleet) + bg_specs,
            shared_bottlenecks=(
                {
                    self.fleet.bottleneck_group: (
                        self.bottleneck_capacity_bps
                        if self.bottleneck_capacity_bps is not None
                        else scenario.server_access_bps / 2
                    )
                }
                if self.fleet.bottleneck_group is not None
                else {}
            ),
            control_loss_prob=self.control_loss_prob,
        )
        topology = Topology(sim, topo_spec, rngs=rngs.fork("topology"))

        servers, service = _scenario_servers(sim, scenario, topology)

        fleet_nodes = [topology.client(spec.client_id) for spec in fleet]
        bg_nodes = [topology.client(spec.client_id) for spec in bg_specs]

        clients = [
            MFCClient(
                sim,
                node,
                service,
                topology.control,
                self.config,
                rng=rngs.stream(f"client.{node.client_id}"),
            )
            for node in fleet_nodes
        ]
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
        cohort = self.crowd_mode == "cohort"
        coordinator = Coordinator(
            sim,
            clients,
            topology.control,
            self.config,
            target_name=scenario.name,
            rng=rngs.stream("coordinator"),
            use_naive_scheduling=self.use_naive_scheduling,
            planner=self.planner,
            hardened=self.hardened,
            crowd_mode=self.crowd_mode or "exact",
            network=topology.network if cohort else None,
            cohort_rng=rngs.stream("cohort") if cohort else None,
        )
        background = BackgroundTraffic(
            sim,
            service,
            scenario.site,
            bg_nodes,
            rate_rps=scenario.background_rps,
            rng=rngs.stream("background"),
        )

        profile = profile_site(scenario.site)
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
            sim=sim,
            topology=topology,
            service=service,
            servers=servers,
            clients=clients,
            coordinator=coordinator,
            background=background,
            stages=stages,
            profile=profile,
            monitor=monitor,
            scenario=scenario,
            world_spec=self,
            faults=injector,
        )

    def _build_indicator(self):
        from repro.core.client import MFCClient
        from repro.core.indicator import (
            PROBE_ACCESS_BPS,
            PROBE_JITTER,
            PROBE_RTT_S,
            IndicatorRunner,
        )
        from repro.core.profiler import profile_site
        from repro.net.topology import ClientSpec, Topology, TopologySpec
        from repro.sim.kernel import Simulator
        from repro.sim.rng import RNGRegistry
        from repro.workload.background import BackgroundTraffic

        scenario = self.scenario
        if self.background_rps is not None:
            scenario = scenario.with_background(self.background_rps)
        rngs = RNGRegistry(self.seed)
        sim = Simulator()

        # one dedicated measurement vantage point instead of the fleet:
        # well connected (its access link never masks server-side
        # provisioning), low jitter, never flaky — probe infrastructure,
        # not a PlanetLab node
        probe_spec = ClientSpec(
            client_id="probe00",
            rtt_to_target=PROBE_RTT_S,
            rtt_to_coord=0.010,
            access_bps=PROBE_ACCESS_BPS,
            jitter=PROBE_JITTER,
        )
        bg_specs = _background_client_specs()
        topo_spec = TopologySpec(
            server_access_bps=scenario.server_access_bps,
            clients=[probe_spec] + bg_specs,
        )
        topology = Topology(sim, topo_spec, rngs=rngs.fork("topology"))

        servers, service = _scenario_servers(sim, scenario, topology)
        client = MFCClient(
            sim,
            topology.client(probe_spec.client_id),
            service,
            topology.control,
            self.config,
            rng=rngs.stream("indicator.probe"),
        )
        background = BackgroundTraffic(
            sim,
            service,
            scenario.site,
            [topology.client(spec.client_id) for spec in bg_specs],
            rate_rps=scenario.background_rps,
            rng=rngs.stream("background"),
        )
        return IndicatorRunner(
            sim=sim,
            topology=topology,
            service=service,
            servers=servers,
            client=client,
            background=background,
            profile=profile_site(scenario.site),
            scenario=scenario,
            world_spec=self,
        )

    def _build_synthetic(self):
        from repro.core.client import MFCClient
        from repro.core.coordinator import Coordinator
        from repro.core.runner import MFCRunner
        from repro.core.stages import StagePlan
        from repro.net.topology import Topology, TopologySpec
        from repro.server.http import Method
        from repro.server.synthetic import SyntheticServer
        from repro.sim.kernel import Simulator
        from repro.sim.rng import RNGRegistry
        from repro.workload.fleet import build_fleet

        synth = self.synthetic
        rngs = RNGRegistry(self.seed)
        sim = Simulator()
        fleet = build_fleet(self.fleet, rng=rngs.stream("fleet"))
        topology = Topology(
            sim,
            TopologySpec(
                server_access_bps=synth.server_access_bps,
                clients=fleet,
                control_loss_prob=self.control_loss_prob,
            ),
            rngs=rngs.fork("topology"),
        )
        model = SYNTHETIC_MODELS[synth.model](sim, **synth.params)
        server = SyntheticServer(
            sim,
            model,
            topology.network,
            topology.server_access,
            base_service_s=synth.base_service_s,
            response_bytes=synth.response_bytes,
        )
        clients = [
            MFCClient(
                sim,
                node,
                server,
                topology.control,
                self.config,
                rng=rngs.stream(f"client.{node.client_id}"),
            )
            for node in topology.clients
        ]
        coordinator = Coordinator(
            sim,
            clients,
            topology.control,
            self.config,
            target_name="synthetic",
            rng=rngs.stream("coordinator"),
            use_naive_scheduling=self.use_naive_scheduling,
            planner=self.planner,
            hardened=self.hardened,
        )
        stage = StagePlan(
            name=StageKind.BASE.value,
            method=Method.GET,
            degradation_quantile=0.5,
            object_paths=(synth.probe_path,),
        )
        return MFCRunner(
            sim=sim,
            topology=topology,
            service=server,
            servers=[],
            clients=clients,
            coordinator=coordinator,
            background=None,
            stages=[stage],
            profile=None,
            monitor=None,
            scenario=None,
            world_spec=self,
        )
