"""Population-scale campaign engine: shards, batches, streaming.

Covers the 100k-world machinery: the sharded result store (layout,
lazy loading, batched commits, compaction, corruption handling), the
batched pool dispatch (parity with the sequential fallback over mixed
cached/fresh campaigns, resume after an injected kill, error
semantics), streaming consumption via ``iter_campaign``, and the
throttled progress/ETA reporting.
"""

import json
import warnings

import pytest

from repro.campaign import (
    FULL,
    SUMMARY,
    CampaignSpec,
    JobSpec,
    ProgressReporter,
    ResultStore,
    auto_batch_size,
    iter_campaign,
    run_campaign,
)
from repro.campaign.store import N_SHARDS, shard_index
from repro.core.config import MFCConfig
from repro.workload.fleet import FleetSpec, lan_fleet
from repro.worlds import SyntheticSpec, WorldSpec


def record(key, detail=SUMMARY, value=0):
    return {
        "key": key,
        "job_id": key,
        "meta": {},
        "detail": detail,
        "elapsed_s": 0.1,
        "result": {"kind": "value", "value": value},
    }


def micro_job(i, seed=0):
    """The cheapest real world job: one client, one-request crowd."""
    world = WorldSpec(
        synthetic=SyntheticSpec(
            model="linear", params={"seconds_per_request": 0.0005 * (1 + i % 3)}
        ),
        fleet=lan_fleet(1),
        config=MFCConfig(
            threshold_s=0.100,
            max_crowd=1,
            initial_crowd=1,
            crowd_step=1,
            min_clients=1,
        ),
        seed=seed + i,
    )
    return JobSpec(job_id=f"micro{i}", world=world, meta={"index": i})


# -- sharded store ----------------------------------------------------------------


def test_shard_index_is_stable_and_in_range():
    keys = ["00aa", "ff17", "9c0b", "deadbeef"]
    for key in keys:
        assert shard_index(key) == int(key[:2], 16) % N_SHARDS
    # non-hex keys still route deterministically
    assert 0 <= shard_index("not-hex!") < N_SHARDS
    assert shard_index("not-hex!") == shard_index("not-hex!")


def test_sharded_store_roundtrip_and_layout(tmp_path):
    store = ResultStore(tmp_path / "cache.d")
    keys = [f"{b:02x}key" for b in range(40)]
    store.append_batch([record(k, value=i) for i, k in enumerate(keys)])
    files = store.shard_paths()
    assert files  # shard files exist on disk
    assert all(p.name.startswith("shard-") for p in files)
    reloaded = ResultStore(tmp_path / "cache.d")
    assert len(reloaded) == len(keys)
    for i, key in enumerate(keys):
        assert reloaded.get(key, SUMMARY)["result"]["value"] == i


def test_sharded_store_loads_lazily(tmp_path):
    store = ResultStore(tmp_path / "cache.d")
    store.append_batch([record(f"{b:02x}k") for b in range(32)])
    reloaded = ResultStore(tmp_path / "cache.d")
    assert not reloaded._shards  # nothing loaded yet
    assert reloaded.get("00k", SUMMARY) is not None
    # a single lookup touched exactly one shard
    assert len(reloaded._shards) == 1


def test_append_batch_groups_by_shard(tmp_path):
    store = ResultStore(tmp_path / "cache.d")
    same_shard = [record("aa01"), record("aa02"), record("aa03")]
    store.append_batch(same_shard)
    path = store.shard_path(shard_index("aa01"))
    assert len(path.read_text().splitlines()) == 3


def test_store_rejects_a_regular_file(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text(json.dumps(record("aa")) + "\n")
    with pytest.raises(ValueError, match="cache.jsonl is a file"):
        ResultStore(path)
    # any other path is a shard directory, created on the first append
    store = ResultStore(tmp_path / "fresh.jsonl")
    store.append(record("aa"))
    assert (tmp_path / "fresh.jsonl").is_dir()


def test_torn_tail_is_silent_but_mid_file_corruption_warns(tmp_path):
    store = ResultStore(tmp_path / "cache.d")
    store.append(record("aa01"))
    store.append(record("aa02"))
    path = store.shard_path(shard_index("aa01"))
    # torn trailing line: the kill-mid-append signature, no warning
    with path.open("a") as fh:
        fh.write('{"key": "aa03", "resu')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reloaded = ResultStore(tmp_path / "cache.d")
        assert len(reloaded) == 2
    # corruption *before* intact lines is real damage and must warn
    lines = path.read_text().splitlines()
    lines[0] = '{"broken'
    path.write_text("\n".join(lines) + "\n")
    with pytest.warns(RuntimeWarning, match="1 corrupt mid-file line"):
        damaged = ResultStore(tmp_path / "cache.d")
        assert len(damaged) == 1  # the intact record survives


def test_compact_drops_superseded_and_reports_bytes(tmp_path):
    store = ResultStore(tmp_path / "cache.d")
    store.append(record("aa", detail=SUMMARY, value=1))
    store.append(record("aa", detail=FULL, value=2))
    store.append(record("aa", detail=SUMMARY, value=3))  # never downgrades
    store.append(record("ab", value=4))
    stats = store.compact()
    assert stats["lines_before"] == 4
    assert stats["records_after"] == 2
    assert stats["bytes_reclaimed"] > 0
    assert stats["bytes_after"] == stats["bytes_before"] - stats["bytes_reclaimed"]
    reloaded = ResultStore(tmp_path / "cache.d")
    assert reloaded.get("aa", FULL)["result"]["value"] == 2
    assert reloaded.get("ab", SUMMARY)["result"]["value"] == 4
    # compacting a compacted store reclaims nothing further
    assert ResultStore(tmp_path / "cache.d").compact()["bytes_reclaimed"] == 0


# -- batched dispatch -------------------------------------------------------------


def test_auto_batch_size_packs_small_and_respects_big_jobs():
    micro = [micro_job(i) for i in range(2000)]
    assert auto_batch_size(micro, workers=2) > 50
    big = [
        JobSpec(
            job_id=f"big{i}",
            world=WorldSpec(
                synthetic=SyntheticSpec(model="linear", params={"seconds_per_request": 0.001}),
                fleet=FleetSpec(n_clients=200),
                config=MFCConfig(max_crowd=200),
            ),
        )
        for i in range(8)
    ]
    assert auto_batch_size(big, workers=2) == 1
    # load-balance cap: few jobs never collapse into one giant batch
    assert auto_batch_size(micro[:16], workers=2) <= 2
    assert auto_batch_size([], workers=4) == 1


def test_batched_parity_mixed_cache_and_resume_after_kill(tmp_path):
    jobs = [micro_job(i) for i in range(12)]
    baseline = run_campaign(jobs)
    assert all(not o.cached for o in baseline)

    # pre-seed a sharded store with the first four results (a prior
    # partial run), then run the rest through the batched pool
    cache = tmp_path / "cache.d"
    seeded = run_campaign(jobs[:4], store=cache)
    assert [o.result for o in seeded] == [o.result for o in baseline[:4]]

    mixed = run_campaign(jobs, jobs=2, batch=3, store=cache)
    assert [o.result for o in mixed] == [o.result for o in baseline]
    assert [o.cached for o in mixed] == [True] * 4 + [False] * 8

    # inject a kill: tear the final line of every shard file, as a
    # SIGKILL mid-batch-write would
    store = ResultStore(cache)
    torn = 0
    for path in store.shard_paths():
        text = path.read_text()
        if text.count("\n") >= 1:
            path.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2 - 1])
            torn += 1
    assert torn > 0

    resumed = run_campaign(jobs, jobs=2, batch=3, store=cache)
    assert [o.result for o in resumed] == [o.result for o in baseline]
    assert sum(1 for o in resumed if not o.cached) == torn  # only torn jobs re-ran


def test_batch_failure_commits_finished_prefix(tmp_path):
    jobs = [
        JobSpec(job_id="good1", func="campaign_helpers:double", kwargs={"x": 1}),
        JobSpec(job_id="good2", func="campaign_helpers:double", kwargs={"x": 2}),
        JobSpec(job_id="boom", func="campaign_helpers:boom"),
        JobSpec(job_id="never", func="campaign_helpers:double", kwargs={"x": 3}),
    ]
    cache = tmp_path / "cache.d"
    with pytest.raises(RuntimeError, match="job failure propagates"):
        run_campaign(
            CampaignSpec(name="partial", jobs=jobs), jobs=2, batch=4, store=cache
        )
    reloaded = ResultStore(cache)
    # the failing batch's finished prefix was committed before the raise
    assert jobs[0].key in reloaded
    assert jobs[1].key in reloaded
    assert jobs[3].key not in reloaded


def test_explicit_batch_validation():
    with pytest.raises(ValueError, match="batch"):
        run_campaign([micro_job(0)], jobs=2, batch=0)


# -- streaming --------------------------------------------------------------------


def test_iter_campaign_streams_every_job_once(tmp_path):
    jobs = [micro_job(i) for i in range(6)]
    twin = JobSpec(job_id="twin", world=jobs[0].world, meta={"index": 99})
    assert twin.key == jobs[0].key
    cache = tmp_path / "cache.d"
    run_campaign(jobs[:2], store=cache)  # pre-cache two

    seen = {}
    for outcome in iter_campaign(jobs + [twin], jobs=2, batch=2, store=cache):
        seen[outcome.meta["index"]] = outcome
    assert sorted(seen) == [0, 1, 2, 3, 4, 5, 99]
    assert seen[0].cached and seen[1].cached
    assert not seen[2].cached
    # the twin rides on its key's one execution
    assert seen[99].cached
    assert seen[99].result == seen[0].result


def test_iter_campaign_yields_before_pool_drains():
    jobs = [micro_job(i) for i in range(8)]
    iterator = iter_campaign(jobs, jobs=2, batch=2)
    first = next(iterator)
    assert first.result is not None  # landed before the campaign finished
    rest = list(iterator)
    assert len(rest) == 7


def test_study_streams_through_sharded_cache(tmp_path):
    from repro.analysis import run_stage_study
    from repro.core.stages import StageKind
    from repro.workload import generate_population
    from repro.workload.populations import RankStratumSpec

    sites = generate_population([RankStratumSpec(name="s", n_sites=5)], seed=2)
    kwargs = dict(
        config=MFCConfig(min_clients=5, max_crowd=10),
        fleet_spec=FleetSpec(n_clients=6, unresponsive_fraction=0.0),
        seed=2,
    )
    sequential = run_stage_study(sites, StageKind.BASE, **kwargs)
    batched = run_stage_study(
        sites,
        StageKind.BASE,
        jobs=2,
        batch=2,
        cache_path=tmp_path / "study.d",
        **kwargs,
    )
    assert batched.measurements == sequential.measurements
    assert list((tmp_path / "study.d").glob("shard-*.jsonl"))


# -- progress ---------------------------------------------------------------------


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_progress_redraws_are_time_throttled(monkeypatch, capsys):
    import repro.campaign.progress as progress_mod

    clock = _Clock()
    monkeypatch.setattr(progress_mod.time, "monotonic", clock)
    reporter = ProgressReporter(total=1000, label="t", min_interval_s=1.0)
    reporter.start(cached=0)
    for _ in range(999):
        clock.now += 0.0001  # 999 jobs land within ~0.1s
        reporter.job_done()
    lines = [
        line
        for line in capsys.readouterr().err.splitlines()
        if "done" in line
    ]
    # time-based throttle: far fewer redraws than jobs
    assert len(lines) <= 2


def test_progress_eta_counts_only_fresh_jobs(monkeypatch):
    import repro.campaign.progress as progress_mod

    clock = _Clock()
    monkeypatch.setattr(progress_mod.time, "monotonic", clock)
    reporter = ProgressReporter(
        total=100, label="t", stream=open("/dev/null", "w"), min_interval_s=1e9
    )
    reporter.start(cached=50)
    assert reporter.eta_seconds() is None  # no fresh completions yet
    clock.now += 10.0
    reporter.cache_hit(10)  # mid-run cache hits: still no rate
    assert reporter.eta_seconds() is None
    reporter.job_done(20)  # 20 fresh jobs in 10s -> 0.5 s/job
    # remaining 20 jobs at the fresh-job rate, cache hits excluded
    assert reporter.eta_seconds() == pytest.approx(10.0)
