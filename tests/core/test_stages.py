"""Tests for the probe-stage registry and stage plans."""

import pytest

from repro.content.site import minimal_site
from repro.core.profiler import profile_site
from repro.core.stages import (
    CACHE_BUST,
    DEFAULT_STAGE_NAMES,
    ROUND_ROBIN,
    SHARED,
    STAGES,
    UNIQUE,
    ProbeStage,
    StageKind,
    StagePlan,
    register_stage,
    stage_named,
    stages_named,
    standard_stages,
    validate_stage_names,
)
from repro.server.http import CACHE_BUST_MARKER, Method


def full_profile():
    return profile_site(minimal_site(n_unique_queries=10))


# -- registry -------------------------------------------------------------------


def test_registry_contains_paper_and_new_stages():
    assert set(DEFAULT_STAGE_NAMES) == {"Base", "SmallQuery", "LargeObject"}
    assert {"Base", "SmallQuery", "LargeObject", "Upload", "ConnChurn",
            "CacheBust"} <= set(STAGES)
    # registration order starts with the paper's sequence
    assert list(STAGES)[:3] == list(DEFAULT_STAGE_NAMES)


def test_every_registered_stage_declares_a_resource():
    for stage in STAGES.values():
        assert stage.resource
        assert stage.description


def test_stage_named_unknown_raises_with_listing():
    with pytest.raises(ValueError, match="registered"):
        stage_named("Teleport")
    with pytest.raises(ValueError, match="Teleport"):
        validate_stage_names(["Base", "Teleport"])


def test_register_stage_rejects_duplicates():
    with pytest.raises(ValueError, match="already registered"):
        register_stage(STAGES["Base"])


def test_probe_stage_validation():
    with pytest.raises(ValueError, match="source"):
        ProbeStage("X", "r", Method.GET, 0.5, source="moon-rocks")
    with pytest.raises(ValueError, match="assignment"):
        ProbeStage("X", "r", Method.GET, 0.5, source="base-page",
                   assignment="psychic")
    with pytest.raises(ValueError, match="quantile"):
        ProbeStage("X", "r", Method.GET, 1.5, source="base-page")
    with pytest.raises(ValueError, match="connections"):
        ProbeStage("X", "r", Method.GET, 0.5, source="base-page",
                   connections=0)
    with pytest.raises(ValueError, match="body_bytes"):
        ProbeStage("X", "r", Method.POST, 0.5, source="base-page",
                   body_bytes=-1.0)


# -- seed-stage byte-compatibility -----------------------------------------------


def test_standard_stages_match_seed_recipes():
    profile = full_profile()
    plans = standard_stages(profile)
    assert [p.name for p in plans] == ["Base", "SmallQuery", "LargeObject"]
    base, query, large = plans
    assert base.method is Method.HEAD
    assert base.degradation_quantile == 0.5
    assert base.object_paths == (profile.base_page,)
    assert query.method is Method.GET
    assert query.object_paths == tuple(o.path for o in profile.small_queries)
    assert large.method is Method.GET
    assert large.degradation_quantile == 0.9
    assert large.object_paths == (profile.large_objects[0].path,)
    # none of the paper stages carries a body or churns connections
    assert all(p.body_bytes == 0.0 and p.connections == 1 for p in plans)


def test_stage_plan_kind_maps_back_to_legacy_enum():
    profile = full_profile()
    for kind in StageKind:
        assert StageKind(STAGES[kind.value].plan(profile).name) is kind
    # post-paper stages exist only as registry names
    with pytest.raises(ValueError):
        StageKind(STAGES["Upload"].plan(profile).name)


# -- new stage recipes -----------------------------------------------------------


def test_upload_stage_posts_body_to_dynamic_endpoint():
    profile = full_profile()
    plan = STAGES["Upload"].plan(profile)
    assert plan.method is Method.POST
    assert plan.body_bytes == 64 * 1024.0
    # shared write endpoint: the cheapest small query
    assert plan.object_paths == (profile.small_queries[0].path,)
    assert plan.object_for(0) == plan.object_for(9)


def test_upload_skipped_without_dynamic_endpoint():
    profile = profile_site(minimal_site())
    profile.small_queries.clear()
    assert STAGES["Upload"].plan(profile) is None


def test_conn_churn_stage_multiplies_connections():
    plan = STAGES["ConnChurn"].plan(full_profile())
    assert plan.method is Method.HEAD
    assert plan.connections == 4
    assert plan.object_paths == (full_profile().base_page,)


def test_cache_bust_stage_unique_paths_per_client():
    profile = full_profile()
    plan = STAGES["CacheBust"].plan(profile)
    large = profile.large_objects[0].path
    paths = {plan.object_for(i) for i in range(50)}
    assert len(paths) == 50
    assert all(p.startswith(large + CACHE_BUST_MARKER) for p in paths)


def test_cache_bust_skipped_without_large_objects():
    profile = profile_site(minimal_site(large_object_bytes=10_000))
    assert STAGES["CacheBust"].plan(profile) is None


def test_stages_named_preserves_order_and_skips_ineligible():
    profile = profile_site(minimal_site(large_object_bytes=10_000))
    plans = stages_named(("CacheBust", "ConnChurn", "Base"), profile)
    assert [p.name for p in plans] == ["ConnChurn", "Base"]


# -- object assignment (incl. the strict-unique error) ----------------------------


def plan_with(assignment, paths=("/a", "/b", "/c")):
    return StagePlan(
        name="T",
        method=Method.GET,
        degradation_quantile=0.5,
        object_paths=tuple(paths),
        assignment=assignment,
    )


def test_shared_assignment_always_first_path():
    plan = plan_with(SHARED)
    assert plan.object_for(0) == plan.object_for(17) == "/a"


def test_round_robin_wraps_like_the_paper_fallback():
    plan = plan_with(ROUND_ROBIN)
    assert [plan.object_for(i) for i in range(4)] == ["/a", "/b", "/c", "/a"]


def test_unique_assignment_raises_instead_of_wrapping():
    """The satellite fix: a stage that *requires* unique objects must
    fail loudly when the pool is shorter than the crowd, not silently
    hand two clients the same path."""
    plan = plan_with(UNIQUE)
    assert [plan.object_for(i) for i in range(3)] == ["/a", "/b", "/c"]
    with pytest.raises(ValueError) as exc:
        plan.object_for(3)
    message = str(exc.value)
    assert "unique" in message and "3 path(s)" in message
    assert "client index 3" in message


def test_empty_pool_raises_for_every_assignment():
    for assignment in (SHARED, ROUND_ROBIN, UNIQUE, CACHE_BUST):
        with pytest.raises(ValueError, match="no objects"):
            plan_with(assignment, paths=()).object_for(0)


def test_cache_bust_assignment_suffixes_the_shared_path():
    plan = plan_with(CACHE_BUST)
    assert plan.object_for(5) == f"/a{CACHE_BUST_MARKER}5"
