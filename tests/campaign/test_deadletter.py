"""Dead-letter campaigns and result-store damage control.

A poison job — one that hangs past its wall-clock budget or raises on
every attempt — must never wedge a campaign: it commits a
:class:`DeadLetter` record in place of its result, the campaign runs
to completion, and a resume serves the letter from cache instead of
hanging again.  Without an opted-in policy the historical contract
holds exactly: failures raise, nothing is swallowed.
"""

import json
import warnings

import pytest

from repro.campaign import (
    SUMMARY,
    CampaignSpec,
    JobSpec,
    ResultStore,
    iter_campaign,
    run_campaign,
)
from repro.campaign import executor
from repro.campaign.codec import DeadLetter, decode_result, encode_result
from repro.campaign.store import shard_index


def job(job_id, func="campaign_helpers:double", **kwargs):
    return JobSpec(job_id=job_id, func=func, kwargs=kwargs)


def hung_job(job_id="hung"):
    return job(job_id, func="campaign_helpers:hang", seconds=60.0)


def record(key, value=0):
    return {
        "key": key,
        "job_id": key,
        "meta": {},
        "detail": SUMMARY,
        "elapsed_s": 0.1,
        "result": {"kind": "value", "value": value},
    }


# -- policy validation ------------------------------------------------------------


def test_policy_validates_and_reports_enablement(monkeypatch):
    ok = [job("ok", x=1)]
    for options, message in (
        ({"job_timeout_s": 0.0}, "job_timeout_s must be > 0"),
        ({"retries": -1}, "retries must be >= 0"),
        ({"jobs": 0}, "jobs must be >= 1"),
        ({"batch": 0}, "batch must be >= 1"),
    ):
        with pytest.raises(ValueError, match=message):
            list(iter_campaign(ok, **options))
    # either knob switches a raising job to a dead letter; neither
    # leaves the failure to propagate
    monkeypatch.setattr(executor, "RETRY_BACKOFF_S", 0.0)
    boom = [job("boom", func="campaign_helpers:boom")]
    with pytest.raises(RuntimeError, match="job failure propagates"):
        list(iter_campaign(boom))
    for options in ({"job_timeout_s": 30.0}, {"retries": 1}):
        (outcome,) = iter_campaign(boom, **options)
        assert outcome.dead


# -- dead-letter codec ------------------------------------------------------------


def test_dead_letter_round_trips_through_the_codec():
    letter = DeadLetter(
        job_id="stuck", reason="timeout", error="JobTimeout('2s')",
        attempts=1, elapsed_s=2.001,
    )
    doc = encode_result(letter)
    assert doc["kind"] == "dead-letter"
    assert decode_result(json.loads(json.dumps(doc))) == letter


# -- hung jobs --------------------------------------------------------------------


def test_hung_job_dead_letters_and_the_campaign_completes(tmp_path):
    spec = CampaignSpec(
        name="hang", jobs=[job("ok", x=1), hung_job(), job("ok2", x=2)]
    )
    cache = tmp_path / "hang.cache"
    outcomes = run_campaign(spec, store=cache, job_timeout_s=0.5)
    assert [o.result for o in outcomes[::2]] == [
        {"doubled": 2}, {"doubled": 4}
    ]
    letter = outcomes[1].result
    assert outcomes[1].dead
    assert isinstance(letter, DeadLetter)
    assert letter.reason == "timeout"
    assert letter.attempts == 1  # timeouts are never retried
    assert letter.elapsed_s >= 0.5

    # a resume serves the letter from cache instead of hanging again
    resumed = run_campaign(spec, store=cache, job_timeout_s=0.5)
    assert resumed[1].cached
    assert resumed[1].result == letter


def test_hung_job_dead_letters_under_the_pool(tmp_path):
    spec = CampaignSpec(
        name="hangpool",
        jobs=[hung_job()] + [job(f"ok{x}", x=x) for x in range(3)],
    )
    for batch in (1, 2):
        outcomes = run_campaign(
            spec,
            jobs=2,
            batch=batch,
            store=tmp_path / f"b{batch}.cache",
            job_timeout_s=0.5,
        )
        assert sum(o.dead for o in outcomes) == 1
        assert outcomes[0].result.reason == "timeout"


# -- raising jobs -----------------------------------------------------------------


def test_flaky_job_recovers_within_its_retry_budget(tmp_path, monkeypatch):
    monkeypatch.setattr(executor, "RETRY_BACKOFF_S", 0.0)
    marker = tmp_path / "attempts"
    spec = CampaignSpec(
        name="flaky",
        jobs=[
            job(
                "flaky",
                func="campaign_helpers:flaky",
                marker_path=str(marker),
                fail_times=2,
            )
        ],
    )
    outcomes = run_campaign(spec, retries=2)
    assert outcomes[0].result == {"attempts": 3}
    assert not outcomes[0].dead


def test_exhausted_retries_dead_letter_with_the_error(tmp_path, monkeypatch):
    monkeypatch.setattr(executor, "RETRY_BACKOFF_S", 0.0)
    spec = CampaignSpec(name="boom", jobs=[job("boom", func="campaign_helpers:boom")])
    outcomes = run_campaign(spec, store=tmp_path / "boom.cache", retries=1)
    letter = outcomes[0].result
    assert isinstance(letter, DeadLetter)
    assert letter.reason == "error"
    assert letter.attempts == 2
    assert "job failure propagates" in letter.error


def test_without_a_policy_failures_still_raise():
    spec = CampaignSpec(name="boom", jobs=[job("boom", func="campaign_helpers:boom")])
    with pytest.raises(RuntimeError, match="job failure propagates"):
        list(iter_campaign(spec))


# -- store corruption edges -------------------------------------------------------


def test_empty_shard_file_is_harmless(tmp_path):
    store = ResultStore(tmp_path / "cache.d")
    store.append(record("aa"))
    empty = store.shard_path(3)
    empty.touch()
    reloaded = ResultStore(tmp_path / "cache.d")
    assert len(reloaded) == 1
    report = reloaded.fsck()
    assert not report["damaged"]
    assert report["totals"]["files"] == 2


def test_torn_tail_at_a_batch_append_boundary(tmp_path):
    store = ResultStore(tmp_path / "cache.d")
    # one batch, one shard: "aa.." keys all route to the same file
    store.append_batch([record(f"aa{i:02d}", value=i) for i in range(4)])
    path = store.shard_path(shard_index("aa01"))
    text = path.read_text()
    # tear the last record mid-write, exactly as a kill mid-batch would
    path.write_text(text[: text.rindex('"value"') + 9])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a torn tail is normal wear
        reloaded = ResultStore(tmp_path / "cache.d")
        assert len(reloaded) == 3
    report = reloaded.fsck()
    assert not report["damaged"]
    assert report["totals"]["torn_tails"] == 1


def test_fsck_flags_mid_file_damage_and_counts_dead_letters(tmp_path):
    store = ResultStore(tmp_path / "cache.d")
    letter = DeadLetter(job_id="stuck", reason="timeout")
    store.append_batch(
        [
            record("aa01"),
            {**record("aa02"), "result": encode_result(letter)},
            record("aa03"),
        ]
    )
    path = store.shard_path(shard_index("aa01"))
    lines = path.read_text().splitlines()
    lines[1] = '{"broken'
    path.write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = ResultStore(tmp_path / "cache.d").fsck()
    assert report["damaged"]
    assert report["totals"]["corrupt"] == 1
    (shard,) = report["shards"]
    assert shard["corrupt"] == 1

    # intact store for comparison: the letter counts, nothing damages
    clean = ResultStore(tmp_path / "clean.d")
    clean.append_batch(
        [record("aa01"), {**record("aa02"), "result": encode_result(letter)}]
    )
    report = clean.fsck()
    assert not report["damaged"]
    assert report["totals"]["dead_letters"] == 1
