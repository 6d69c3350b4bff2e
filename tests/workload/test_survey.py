"""Survey-mode populations: rank-proportional counts, hosting classes,
object mixes — and the determinism guarantee that replication-scale
populations (scale <= 1) never change."""

import hashlib

import pytest

from repro.workload.populations import (
    HostingClassSpec,
    ObjectMixSpec,
    RankStratumSpec,
    generate_population,
    quantcast_strata,
    survey_counts,
)
from repro.worlds.codec import stable_key


def test_survey_counts_are_rank_proportional():
    counts = survey_counts(10)
    assert counts == {
        "1-1K": 100,
        "1K-10K": 900,
        "10K-100K": 9_000,
        "100K-1M": 90_000,
    }
    assert sum(counts.values()) == 100_000
    assert sum(survey_counts(1).values()) >= 10_000


def test_quantcast_scale_10_expands_to_survey_mode():
    strata = quantcast_strata(10)
    assert sum(s.n_sites for s in strata) == 100_000
    # survey mode samples hosting class and object mix per site
    assert all(s.hosting_classes for s in strata)
    assert all(s.object_mix for s in strata)


def test_replication_scales_keep_paper_roster_and_determinism():
    strata = quantcast_strata(1.0)
    assert [s.n_sites for s in strata] == [114, 107, 118, 148]
    # no survey fields -> zero extra rng draws -> sites byte-identical
    # to every earlier release; the digest below freezes that contract
    assert all(s.hosting_classes is None and s.object_mix is None for s in strata)
    sites = generate_population(quantcast_strata(0.02), seed=0)
    digest = hashlib.sha256()
    for site in sites:
        digest.update(stable_key(site.scenario).encode("ascii"))
    assert digest.hexdigest() == (
        "7c35b6aa0d9c49d27b34c87c49649a3618c2f507f7fa50ab297e2eb27c1692f9"
    )


def test_hosting_class_and_object_mix_sampling():
    classes = (
        (HostingClassSpec("small", cpu_cores=1, ram_gib=2.0, max_workers=256), 1.0),
        (HostingClassSpec("big", cpu_cores=8, ram_gib=16.0, max_workers=2048), 1.0),
    )
    mix = ((ObjectMixSpec("pages", n_static=3, static_bytes_range=(1_000, 2_000)), 1.0),)
    stratum = RankStratumSpec(
        name="survey", n_sites=20, hosting_classes=classes, object_mix=mix
    )
    sites = generate_population([stratum], seed=3)
    cores = {site.scenario.server_spec.cpu_cores for site in sites}
    assert cores == {1, 8}  # both classes drawn across 20 sites
    for site in sites:
        spec = site.scenario.server_spec
        assert spec.max_workers in (256, 2048)
        statics = [
            o for o in site.scenario.site.objects() if o.path.startswith("/static/")
        ]
        assert len(statics) == 3
        assert all(1_000 <= o.size_bytes <= 2_000 for o in statics)
        # extra objects are crawlable from the index page
        index = next(
            o for o in site.scenario.site.objects() if o.path == "/index.html"
        )
        assert all(o.path in index.links for o in statics)


def test_survey_fields_draw_after_legacy_sequence():
    # identical strata except for the survey fields: the survey draws
    # happen after a site's legacy provisioning draws, so the first
    # site's provisioning is untouched (later sites shift because the
    # stratum shares one stream — which is why replication populations
    # must leave the fields at None, per the digest test above)
    plain = RankStratumSpec(name="s", n_sites=5)
    surveyed = RankStratumSpec(
        name="s",
        n_sites=5,
        hosting_classes=((HostingClassSpec("x", cpu_cores=4), 1.0),),
    )
    a = generate_population([plain], seed=11)
    b = generate_population([surveyed], seed=11)
    assert (
        a[0].scenario.server_spec.head_cpu_s
        == b[0].scenario.server_spec.head_cpu_s
    )
    assert all(s.scenario.server_spec.cpu_cores == 4 for s in b)


def test_empty_survey_choices_rejected():
    with pytest.raises(ValueError, match="hosting_classes"):
        RankStratumSpec(name="s", n_sites=1, hosting_classes=()).validate()
    with pytest.raises(ValueError, match="object_mix"):
        RankStratumSpec(name="s", n_sites=1, object_mix=()).validate()
