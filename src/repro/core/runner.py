"""One-call experiment assembly.

:class:`MFCRunner` is a fully assembled, ready-to-run experiment
world: topology, server or cluster (or a synthetic validation server),
background traffic, MFC clients, coordinator, optional resource
monitor.  Assembly itself lives in the declarative world layer —
:class:`~repro.worlds.spec.WorldSpec` is the single description of a
world, and :meth:`MFCRunner.build` is a thin convenience wrapper that
packs its arguments into a spec and calls ``WorldSpec.build()``.

    runner = MFCRunner.build(qtnp_server(), seed=1)
    result = runner.run()
    print(result.summary())
    print(infer_constraints(result).summary())
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.content.classifier import ContentProfile
from repro.core.client import MFCClient
from repro.core.config import MFCConfig
from repro.core.coordinator import Coordinator
from repro.core.records import MFCResult
from repro.core.stages import StagePlan
from repro.net.topology import Topology
from repro.server.cluster import LoadBalancedCluster
from repro.server.monitor import ResourceMonitor
from repro.server.presets import Scenario
from repro.server.webserver import SimWebServer
from repro.sim.kernel import Simulator
from repro.workload.background import BackgroundTraffic
from repro.workload.fleet import FleetSpec


class MFCRunner:
    """A fully assembled experiment world."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        service,
        servers: List[SimWebServer],
        clients: List[MFCClient],
        coordinator: Coordinator,
        background: Optional[BackgroundTraffic],
        stages: List[StagePlan],
        profile: Optional[ContentProfile],
        monitor: Optional[ResourceMonitor],
        scenario: Optional[Scenario],
        world_spec=None,
        faults=None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.service = service
        self.servers = servers
        self.clients = clients
        self.coordinator = coordinator
        self.background = background
        self.stages = stages
        self.profile = profile
        self.monitor = monitor
        self.scenario = scenario
        #: the :class:`~repro.worlds.spec.WorldSpec` this world was
        #: assembled from (None for hand-wired worlds)
        self.world_spec = world_spec
        #: the :class:`~repro.faults.inject.FaultInjector` scheduled on
        #: this world (None for fault-free worlds)
        self.faults = faults

    # -- construction ---------------------------------------------------------

    @classmethod
    def build(
        cls,
        scenario: Scenario,
        fleet_spec: Optional[FleetSpec] = None,
        config: Optional[MFCConfig] = None,
        seed: int = 0,
        stages: Optional[Sequence[str]] = None,
        planner=None,
        monitor_interval_s: Optional[float] = None,
        control_loss_prob: float = 0.0,
        use_naive_scheduling: bool = False,
        bottleneck_capacity_bps: Optional[float] = None,
        faults=None,
    ) -> "MFCRunner":
        """Assemble a world (thin wrapper over ``WorldSpec.build()``).

        *stages* selects registry-named probe stages, in run order
        (e.g. ``["Upload", "CacheBust"]``; default: the paper's three
        stages the site supports).  *planner*
        is a :class:`~repro.core.epochs.PlannerSpec` choosing the
        epoch-progression strategy.  *monitor_interval_s* attaches an
        ``atop``-style monitor to the (first) server.
        """
        from repro.worlds.spec import WorldSpec

        return WorldSpec(
            scenario=scenario,
            fleet=fleet_spec if fleet_spec is not None else FleetSpec(),
            config=config if config is not None else MFCConfig(),
            seed=seed,
            stages=tuple(stages) if stages is not None else None,
            planner=planner,
            monitor_interval_s=monitor_interval_s,
            control_loss_prob=control_loss_prob,
            use_naive_scheduling=use_naive_scheduling,
            bottleneck_capacity_bps=bottleneck_capacity_bps,
            faults=faults,
        ).build()

    # -- execution ------------------------------------------------------------

    def run(self, time_limit_s: float = 1e7) -> MFCResult:
        """Run the whole experiment to completion.

        The kernel is closed once the result is in hand (see
        :meth:`~repro.sim.kernel.Simulator.close`): a world runs once.
        """
        if self.background is not None:
            self.background.start()
        if self.monitor is not None:
            self.monitor.start()
        if self.faults is not None:
            self.faults.start()
        proc = self.coordinator.run(self.stages)
        result = self.sim.run_until_complete(proc, limit=time_limit_s)
        if self.background is not None:
            self.background.stop()
        if self.monitor is not None:
            self.monitor.stop()
        self.sim.close()
        return result

    @property
    def server(self):
        """The (first) backend box — handy for log/monitor access.

        Synthetic worlds have no ``SimWebServer`` boxes; the synthetic
        service itself is returned (it carries the same access log).
        """
        return self.servers[0] if self.servers else self.service

    def combined_access_log(self):
        """Access log across all backends (cluster-aware)."""
        if isinstance(self.service, LoadBalancedCluster):
            return self.service.combined_log()
        return self.server.access_log
