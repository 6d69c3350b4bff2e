"""Topology assembly: clients, coordinator and the target's access link.

A :class:`Topology` wires together the fluid :class:`~repro.net.link.Network`,
per-client access links, optional shared mid-path bottleneck links and
the latency models for both the client↔target and coordinator↔client
paths.  It is the single object the MFC coordinator and the web-server
substrate both talk to.

The *shared bottleneck groups* deserve a note: the paper observes that
"the paths between the target and many of the MFC clients may have
bottleneck links which lie several network hops away from the target
server" and adopts the 90th-percentile rule for the Large Object stage
because of them.  Assigning several clients to one bottleneck group
reproduces that confound, which the ablation bench
(`bench_ablation_percentile`) then exercises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.net.control import ControlChannel
from repro.net.latency import LatencyModel, StationaryJitterLatency
from repro.net.link import Link, Network
from repro.sim.kernel import SimulationError, Simulator
from repro.sim.rng import RNGRegistry

#: first fill of a per-client latency stream, in doubles (two per
#: lognormal sample): in the bench worlds a path's stream draws a
#: median 6 to 38 doubles, so most streams fill once or twice
LATENCY_CHUNK = 32


@dataclass(frozen=True)
class ClientSpec:
    """Static description of one wide-area client."""

    client_id: str
    rtt_to_target: float
    rtt_to_coord: float
    access_bps: float
    jitter: float = 0.05
    spike_prob: float = 0.0
    bottleneck_group: Optional[str] = None
    #: fraction of coordinator probes this node fails to answer in time
    #: (PlanetLab nodes are flaky; the coordinator needs >= 50 live ones)
    unresponsive_prob: float = 0.0


@dataclass(frozen=True)
class TopologySpec:
    """Static description of a whole experiment topology."""

    server_access_bps: float
    clients: Sequence[ClientSpec] = ()
    #: capacity of each named shared mid-path bottleneck
    shared_bottlenecks: Dict[str, float] = field(default_factory=dict)
    control_loss_prob: float = 0.0

    def validate(self) -> None:
        """Raise on dangling bottleneck groups or duplicate client ids."""
        ids = [c.client_id for c in self.clients]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate client ids in topology spec")
        for client in self.clients:
            group = client.bottleneck_group
            if group is not None and group not in self.shared_bottlenecks:
                raise ValueError(
                    f"client {client.client_id} references unknown "
                    f"bottleneck group {group!r}"
                )


class ClientNode:
    """A live client endpoint inside a built topology."""

    def __init__(
        self,
        spec: ClientSpec,
        access_link: Link,
        bottleneck: Optional[Link],
        latency_to_target: LatencyModel,
        latency_to_coord: LatencyModel,
    ) -> None:
        self.spec = spec
        self.client_id = spec.client_id
        self.access_link = access_link
        self.bottleneck = bottleneck
        self.latency_to_target = latency_to_target
        self.latency_to_coord = latency_to_coord

    def download_path(self, server_access: Link) -> List[Link]:
        """Links a server→client response crosses, in order."""
        path = [server_access]
        if self.bottleneck is not None:
            path.append(self.bottleneck)
        path.append(self.access_link)
        return path

    def __repr__(self) -> str:
        return f"ClientNode({self.client_id!r})"


class CoordinatorNode:
    """The coordinator endpoint: latency bookkeeping per client."""

    def __init__(self, clients: Sequence[ClientNode]) -> None:
        self._by_id = {c.client_id: c for c in clients}

    def latency_to(self, client_id: str) -> LatencyModel:
        """Latency model for the coordinator↔client path."""
        return self._by_id[client_id].latency_to_coord


class Topology:
    """A built, simulation-ready topology."""

    def __init__(
        self,
        sim: Simulator,
        spec: TopologySpec,
        rngs: Optional[RNGRegistry] = None,
    ) -> None:
        spec.validate()
        if not spec.clients:
            raise SimulationError("topology needs at least one client")
        self.sim = sim
        self.spec = spec
        rngs = rngs if rngs is not None else RNGRegistry(0)
        self.network = Network(sim)
        self.server_access = self.network.add_link(
            "server-access", spec.server_access_bps
        )
        self._bottlenecks: Dict[str, Link] = {
            name: self.network.add_link(f"bottleneck:{name}", cap)
            for name, cap in spec.shared_bottlenecks.items()
        }
        self.clients: List[ClientNode] = []
        for cspec in spec.clients:
            access = self.network.add_link(
                f"client-access:{cspec.client_id}", cspec.access_bps
            )
            node = ClientNode(
                spec=cspec,
                access_link=access,
                bottleneck=(
                    self._bottlenecks[cspec.bottleneck_group]
                    if cspec.bottleneck_group is not None
                    else None
                ),
                latency_to_target=StationaryJitterLatency(
                    cspec.rtt_to_target,
                    jitter=cspec.jitter,
                    spike_prob=cspec.spike_prob,
                    rng=rngs.replay_stream(
                        f"lat.target.{cspec.client_id}", LATENCY_CHUNK
                    ),
                ),
                latency_to_coord=StationaryJitterLatency(
                    cspec.rtt_to_coord,
                    jitter=cspec.jitter,
                    rng=rngs.replay_stream(
                        f"lat.coord.{cspec.client_id}", LATENCY_CHUNK
                    ),
                ),
            )
            self.clients.append(node)
        self._client_by_id: Dict[str, ClientNode] = {
            node.client_id: node for node in self.clients
        }
        self.coordinator = CoordinatorNode(self.clients)
        self.control = ControlChannel(
            sim,
            rng=rngs.stream("control.loss"),
            loss_prob=spec.control_loss_prob,
        )

    def client(self, client_id: str) -> ClientNode:
        """Look up a client by id."""
        try:
            return self._client_by_id[client_id]
        except KeyError:
            raise KeyError(client_id) from None

    def bottleneck(self, group: str) -> Link:
        """Look up a shared mid-path bottleneck link by group name."""
        return self._bottlenecks[group]

    def __len__(self) -> int:
        return len(self.clients)
