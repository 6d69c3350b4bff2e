"""The worlds and campaigns behind ``tests/golden/fingerprints.json``.

Each recorded fingerprint is a SHA-256 over full-detail result
encodings of one fixed, seeded input: a qtnp Large Object world, a
cohort crowd sweep with its exact twin, a linear-vs-bisect ramp pair,
a campaign of micro-worlds, a campaign of cohort worlds with its exact
twin, or a two-phase triage survey.  The functions here rebuild those
inputs and return the hashes (plus, for triage, the deterministic
request and agreement counts), so a test can replay every record byte
for byte.  Dispatch parameters (worker count, store location) are not
inputs: results are identical however a campaign is dispatched.
"""

import dataclasses
import functools
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Optional

from repro.campaign.codec import encode_result
from repro.campaign.executor import iter_campaign, run_campaign
from repro.campaign.spec import CampaignSpec, JobSpec, _normalize_scenarios, derive_site_seed
from repro.campaign.triage import iter_triage
from repro.core.config import MFCConfig
from repro.core.epochs import PlannerSpec
from repro.core.records import StageOutcome
from repro.core.stages import DEFAULT_STAGE_NAMES
from repro.server import presets
from repro.workload.fleet import FleetSpec, lan_fleet
from repro.workload.populations import generate_population, quantcast_strata
from repro.worlds.spec import SyntheticSpec, WorldSpec

GOLDEN_FINGERPRINTS = os.path.join(
    os.path.dirname(__file__), "golden", "fingerprints.json"
)


def recorded(key: str) -> Dict[str, str]:
    """The recorded ``fingerprint`` (and ``exact_fingerprint``) of *key*."""
    with open(GOLDEN_FINGERPRINTS) as fh:
        return json.load(fh)[key]


def result_fingerprint(result) -> str:
    """SHA-256 over the full canonical encoding of an MFCResult."""
    doc = encode_result(result, detail="full")
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _digest(results) -> str:
    digest = hashlib.sha256()
    for result in results:
        digest.update(result_fingerprint(result).encode("ascii"))
    return "sha256:" + digest.hexdigest()


def _large_object_world(
    n_clients: int,
    max_crowd: int,
    crowd_step: int,
    seed: int = 0,
    threshold_s: float = 0.100,
    crowd_mode: Optional[str] = None,
) -> WorldSpec:
    return WorldSpec(
        scenario=presets.qtnp_server(),
        fleet=FleetSpec(n_clients=n_clients),
        config=MFCConfig(
            threshold_s=threshold_s,
            max_crowd=max_crowd,
            crowd_step=crowd_step,
            initial_crowd=crowd_step,
            min_clients=min(50, max(1, int(n_clients * 0.75))),
        ),
        seed=seed,
        stages=("LargeObject",),
        crowd_mode=crowd_mode,
    )


def large_object(n_clients: int, max_crowd: int, crowd_step: int) -> Dict[str, str]:
    """A qtnp-grade Large Object world run to its crowd cap."""
    world = _large_object_world(n_clients, max_crowd, crowd_step)
    return {"fingerprint": result_fingerprint(world.build().run())}


def crowd_sweep(
    n_clients: int, max_crowd: int, crowd_step: int, exact_arm: bool = True
) -> Dict[str, str]:
    """A cohort crowd sweep with threshold 1 s, so it always reaches the
    cap, and (with *exact_arm*) the same sweep with per-client fan-out."""
    modes = {"fingerprint": "cohort"}
    if exact_arm:
        modes["exact_fingerprint"] = None
    return {
        field: result_fingerprint(
            _large_object_world(
                n_clients, max_crowd, crowd_step, threshold_s=1.0, crowd_mode=mode
            ).build().run()
        )
        for field, mode in modes.items()
    }


def bisect_ramp(
    n_clients: int, max_crowd: int, crowd_step: int, access_mbps: float = 2000.0
) -> Dict[str, str]:
    """The same LAN-fleet Large Object world under the linear ramp and
    under ``BisectKnee``, with the server access link widened."""
    scenario = dataclasses.replace(
        presets.qtnp_server(), server_access_bps=access_mbps * 1e6 / 8.0
    )
    config = MFCConfig(
        threshold_s=0.100,
        max_crowd=max_crowd,
        crowd_step=crowd_step,
        initial_crowd=crowd_step,
        min_clients=min(50, max(1, int(n_clients * 0.75))),
    )
    pair = "".join(
        result_fingerprint(
            WorldSpec(
                scenario=scenario,
                fleet=lan_fleet(n_clients),
                config=config,
                seed=0,
                stages=("LargeObject",),
                planner=planner,
            ).build().run()
        )
        for planner in (None, PlannerSpec(name="bisect"))
    )
    return {"fingerprint": "sha256:" + hashlib.sha256(pair.encode("ascii")).hexdigest()}


def _campaign_results(name: str, worlds, jobs: int):
    spec = CampaignSpec(
        name=name,
        jobs=[JobSpec.from_world(f"{name}-{i}", w) for i, w in enumerate(worlds)],
    )
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        outcomes = run_campaign(
            spec, jobs=jobs, store=Path(tmp) / "cache.d", progress=False
        )
    return [outcome.result for outcome in outcomes]


def micro_campaign(n_worlds: int, jobs: int = 2) -> Dict[str, str]:
    """*n_worlds* one-client, one-request synthetic worlds through the
    batched pool into a sharded store, hashed in campaign order."""
    worlds = [
        WorldSpec(
            synthetic=SyntheticSpec(
                model="linear", params={"seconds_per_request": 0.0005}
            ),
            fleet=lan_fleet(1),
            config=MFCConfig(
                threshold_s=0.100,
                max_crowd=1,
                initial_crowd=1,
                crowd_step=1,
                min_clients=1,
            ),
            seed=i,
        )
        for i in range(n_worlds)
    ]
    return {"fingerprint": _digest(_campaign_results("micro", worlds, jobs))}


def cohort_campaign(
    n_worlds: int, n_clients: int, max_crowd: int, crowd_step: int, jobs: int = 2
) -> Dict[str, str]:
    """*n_worlds* Large Object worlds (seeds 0..n-1) as a cohort-mode
    campaign and as an exact-mode one."""
    return {
        field: _digest(
            _campaign_results(
                f"cohort-{mode}",
                [
                    _large_object_world(
                        n_clients, max_crowd, crowd_step, seed=i, crowd_mode=mode
                    )
                    for i in range(n_worlds)
                ],
                jobs,
            )
        )
        for field, mode in (("fingerprint", "cohort"), ("exact_fingerprint", None))
    }


@functools.lru_cache(maxsize=None)
def triage_survey(scale: float, jobs: int = 2) -> Dict:
    """Two-phase triage vs full MFC everywhere on a quantcast population.

    Arm A probes every site with the default stage roster; arm B runs
    the indicator sweep and the targeted active probes.  Returns both
    arms' request totals, arm B's agreement with arm A's stopped stages
    (``caught``/``missed``/``extra``) and the fingerprint over each
    site's label and active stops.  Cached: the survey is the costliest
    golden input, and two suites read it.
    """
    seed = 5
    sites = generate_population(quantcast_strata(scale), seed=11)
    config = MFCConfig(threshold_s=0.100, max_crowd=50, min_clients=45)
    fleet = FleetSpec(n_clients=60)
    full_jobs = [
        JobSpec.from_world(
            f"{sid}|full|seed{seed}",
            WorldSpec(
                scenario=scenario,
                fleet=fleet,
                config=config,
                seed=derive_site_seed(seed, index),
                stages=tuple(DEFAULT_STAGE_NAMES),
            ),
            meta={"scenario_id": sid, **extra},
        )
        for index, (sid, scenario, extra) in enumerate(_normalize_scenarios(sites))
    ]
    requests_full = 0
    full_stops: Dict[str, set] = {}
    with tempfile.TemporaryDirectory(prefix="golden-triage-") as tmp:
        for outcome in iter_campaign(
            full_jobs, jobs=jobs, store=Path(tmp) / "full.d", progress=False
        ):
            requests_full += outcome.result.total_requests
            full_stops[outcome.meta["scenario_id"]] = {
                name
                for name, stage in outcome.result.stages.items()
                if stage.outcome is StageOutcome.STOPPED
            }
        records = list(
            iter_triage(
                sites,
                config=config,
                fleet_spec=fleet,
                seed=seed,
                jobs=jobs,
                store=Path(tmp) / "triage.d",
            )
        )
    caught = missed = extra = 0
    digest = hashlib.sha256()
    for record in sorted(records, key=lambda r: r.site_id):
        truth = full_stops.get(record.site_id, set())
        active = {
            name
            for name, stop in (record.active_stops or {}).items()
            if stop is not None
        }
        caught += len(truth & active)
        missed += len(truth - active)
        extra += len(active - truth)
        digest.update(f"{record.site_id}|{record.label}|{sorted(active)}".encode())
    return {
        "sites": len(records),
        "requests_full": requests_full,
        "requests_triage": sum(r.total_requests for r in records),
        "caught": caught,
        "missed": missed,
        "extra": extra,
        "fingerprint": "sha256:" + digest.hexdigest(),
    }
