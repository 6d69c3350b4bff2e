#!/usr/bin/env python
"""Quickstart: profile one web server with a Mini-Flash Crowd.

Builds a simulated wide-area world around the paper's QTNP-like
commercial server, runs the full three-stage MFC experiment and prints
the stopping crowd sizes plus the inferred resource constraints.

Run:  python examples/quickstart.py
"""

from repro.core import MFCConfig, infer_constraints
from repro.server.presets import qtnp_server
from repro.workload.fleet import FleetSpec
from repro.worlds.spec import WorldSpec


def main() -> None:
    # 1. pick a target scenario (server spec + site content + link)
    scenario = qtnp_server()
    print(f"target: {scenario.name} — {scenario.notes}")

    # 2. assemble a world: 65 PlanetLab-like clients, a coordinator,
    #    background traffic, everything seeded and deterministic
    runner = WorldSpec(
        scenario=scenario,
        fleet=FleetSpec(n_clients=65, unresponsive_fraction=0.05),
        config=MFCConfig(threshold_s=0.100, min_clients=50, max_crowd=55),
        seed=1,
    ).build()
    print(f"profiled content: {runner.profile.summary()}")
    print(f"stages to run: {[s.name for s in runner.stages]}\n")

    # 3. run the experiment (simulated time; finishes in well under a
    #    second of wall clock)
    result = runner.run()
    print(result.summary())

    # 4. turn stage outcomes into sub-system verdicts
    print()
    print(infer_constraints(result).summary())

    # 5. the per-epoch tracking curve for one stage
    print("\nBase-stage tracking curve (crowd → median Δresponse-time):")
    for crowd, increase in result.stage("Base").crowd_series():
        bar = "#" * int(increase * 400)
        print(f"  {crowd:>3} | {bar} {increase * 1000:.1f} ms")


if __name__ == "__main__":
    main()
