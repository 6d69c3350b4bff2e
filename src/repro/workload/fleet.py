"""Wide-area client fleets.

The paper ran its clients on PlanetLab: geographically diverse hosts,
mostly on well-connected research networks, with heterogeneous RTTs, a
tail of flaky nodes that miss coordinator probes, and occasional
latency spikes from node load.  :func:`build_fleet` draws a fleet of
:class:`~repro.net.topology.ClientSpec` with those characteristics.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.net.tcp import mbps
from repro.net.topology import ClientSpec


@dataclass(frozen=True)
class FleetSpec:
    """Statistical description of a client fleet."""

    n_clients: int = 65
    #: client→target RTT range, sampled log-uniformly (seconds)
    rtt_range: tuple = (0.020, 0.250)
    #: coordinator→client RTT range (the coordinator sat at UW-Madison)
    coord_rtt_range: tuple = (0.010, 0.120)
    #: client access bandwidth choices, bytes/s (GREN-grade, a few slow)
    access_bps_choices: tuple = (mbps(100), mbps(100), mbps(50), mbps(10))
    #: lognormal sigma of per-sample RTT jitter
    jitter_range: tuple = (0.01, 0.10)
    #: probability a node occasionally spikes (node overload)
    spike_node_fraction: float = 0.15
    spike_prob: float = 0.02
    #: fraction of nodes that fail coordinator liveness probes
    unresponsive_fraction: float = 0.10
    #: fraction of clients behind each named shared mid-path bottleneck;
    #: empty for none
    bottleneck_group: Optional[str] = None
    bottleneck_fraction: float = 0.0

    def validate(self) -> None:
        """Sanity-check the knob values."""
        if self.n_clients < 1:
            raise ValueError("fleet needs at least one client")
        if not 0 <= self.unresponsive_fraction < 1:
            raise ValueError("unresponsive_fraction must be in [0, 1)")
        if not 0 <= self.bottleneck_fraction <= 1:
            raise ValueError("bottleneck_fraction must be in [0, 1]")
        if self.bottleneck_fraction > 0 and self.bottleneck_group is None:
            raise ValueError("bottleneck_fraction needs a bottleneck_group")


def lan_fleet(n_clients: int = 65, rtt: float = 0.002) -> FleetSpec:
    """The §3 lab setting: clients on the same LAN as the target.

    GigE access, millisecond RTTs, no flaky or spiky nodes — the fleet
    the validation experiments and synthetic-server worlds use.
    """
    return FleetSpec(
        n_clients=n_clients,
        rtt_range=(rtt, rtt * 1.5),
        coord_rtt_range=(0.001, 0.002),
        access_bps_choices=(125e6,),  # GigE LAN
        jitter_range=(0.01, 0.03),
        spike_node_fraction=0.0,
        unresponsive_fraction=0.0,
    )


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    import math

    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def build_fleet(
    spec: FleetSpec,
    rng: Optional[random.Random] = None,
) -> List[ClientSpec]:
    """Draw a deterministic fleet of client specs."""
    spec.validate()
    rng = rng if rng is not None else random.Random(0)
    clients: List[ClientSpec] = []
    for i in range(spec.n_clients):
        in_bottleneck = (
            spec.bottleneck_group is not None
            and rng.random() < spec.bottleneck_fraction
        )
        spiky = rng.random() < spec.spike_node_fraction
        clients.append(
            ClientSpec(
                client_id=f"pl{i:03d}",
                rtt_to_target=_log_uniform(rng, *spec.rtt_range),
                rtt_to_coord=_log_uniform(rng, *spec.coord_rtt_range),
                access_bps=rng.choice(list(spec.access_bps_choices)),
                jitter=rng.uniform(*spec.jitter_range),
                spike_prob=spec.spike_prob if spiky else 0.0,
                bottleneck_group=spec.bottleneck_group if in_bottleneck else None,
                unresponsive_prob=(
                    1.0 if rng.random() < spec.unresponsive_fraction else 0.0
                ),
            )
        )
    return clients
