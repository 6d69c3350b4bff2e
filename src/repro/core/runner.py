"""Assembled, ready-to-run experiment worlds.

A :class:`World` holds what :meth:`~repro.worlds.spec.WorldSpec.build`
wired together — topology, server or cluster (or a synthetic
validation server), background traffic, clients, optional resource
monitor and fault plan — and owns the run lifecycle every world
shares.  :class:`MFCRunner` drives it with a coordinator and its
stages; :class:`~repro.core.indicator.IndicatorRunner` with the
sequential indicator probe.

    runner = WorldSpec(scenario=qtnp_server(), seed=1).build()
    result = runner.run()
    print(result.summary())
    print(infer_constraints(result).summary())
"""

from __future__ import annotations

from typing import List

from repro.core.client import MFCClient
from repro.core.coordinator import Coordinator
from repro.core.stages import StagePlan
from repro.server.cluster import LoadBalancedCluster
from repro.sim.process import Process


class World:
    """A fully assembled world and its run lifecycle: start the
    background (and monitor and faults), run the driver process to
    completion, stop, close the kernel.  Subclasses name the driver."""

    def __init__(
        self,
        *,
        sim,
        topology,
        service,
        servers,
        clients: List[MFCClient],
        background,
        profile,
        scenario,
        world_spec=None,
        monitor=None,
        faults=None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.service = service
        self.servers = servers
        self.clients = clients
        self.background = background
        self.profile = profile
        self.scenario = scenario
        #: the :class:`~repro.worlds.spec.WorldSpec` this world was
        #: assembled from (None for hand-wired worlds)
        self.world_spec = world_spec
        self.monitor = monitor
        #: the :class:`~repro.faults.inject.FaultInjector` scheduled on
        #: this world (None for fault-free worlds)
        self.faults = faults

    def _driver(self) -> Process:
        raise NotImplementedError

    def run(self, time_limit_s: float = 1e7):
        """Run the world to completion and return its driver's result.

        The kernel is closed once the result is in hand (see
        :meth:`~repro.sim.kernel.Simulator.close`): a world runs once.
        """
        if self.background is not None:
            self.background.start()
        if self.monitor is not None:
            self.monitor.start()
        if self.faults is not None:
            self.faults.start()
        result = self.sim.run_until_complete(self._driver(), limit=time_limit_s)
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


class MFCRunner(World):
    """A world driven by the MFC coordinator through its stages."""

    def __init__(
        self, *, coordinator: Coordinator, stages: List[StagePlan], **fields
    ) -> None:
        super().__init__(**fields)
        self.coordinator = coordinator
        self.stages = stages

    def _driver(self) -> Process:
        return self.coordinator.run(self.stages)
