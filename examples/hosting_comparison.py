#!/usr/bin/env python
"""Comparing alternate deployment configurations (paper §1/§6).

"MFCs could be used to perform comparative evaluations of alternate
application deployment configurations, e.g., using different hosting
providers."  We deploy the same site three ways — a single small box,
a single big box, and a 4-box load-balanced cluster — and let the MFC
stopping sizes rank them per sub-system.
"""

from dataclasses import replace

from repro.analysis.tables import TextTable
from repro.core import MFCConfig
from repro.core.stages import StageKind
from repro.net.tcp import mbps
from repro.server.presets import qtnp_server
from repro.workload.fleet import FleetSpec
from repro.worlds.spec import WorldSpec

FLEET = FleetSpec(n_clients=65, unresponsive_fraction=0.05)
CONFIG = MFCConfig(threshold_s=0.100, min_clients=50, max_crowd=55)


def deployments():
    base = qtnp_server()
    small = replace(base, name="small-vps", server_access_bps=mbps(100))
    big_spec = replace(
        base.server_spec, name="big-box", cpu_cores=4, cpu_speed=2.0
    )
    big = replace(base, name="big-box", server_spec=big_spec)
    cluster = replace(base, name="4-box-cluster", n_servers=4)
    return [small, base, big, cluster]


def main() -> None:
    table = TextTable(
        ["deployment", "Base", "SmallQuery", "LargeObject"],
        title="Hosting comparison: MFC stopping crowd sizes (higher / NoStop = better)",
    )
    for scenario in deployments():
        runner = WorldSpec(
            scenario=scenario, fleet=FLEET, config=CONFIG, seed=3
        ).build()
        result = runner.run()
        table.add_row(
            scenario.name,
            result.stage(StageKind.BASE.value).describe(),
            result.stage(StageKind.SMALL_QUERY.value).describe(),
            result.stage(StageKind.LARGE_OBJECT.value).describe(),
        )
        print(f"ran {scenario.name}…")
    print()
    print(table.render())
    print(
        "\nReading: the cluster buys head-room on request handling and the\n"
        "back end; the 100 Mbps VPS gives it all back on the access link."
    )


if __name__ == "__main__":
    main()
