"""Tests for the per-process trace memoisation layer."""

from __future__ import annotations

from repro.engine import make_trace
from repro.workloads import get_workload
from repro.workloads.trace_cache import (
    DEFAULT_CACHE_TRACES,
    ReplayableTrace,
    cached_trace,
    clear_trace_cache,
)


class TestReplayableTrace:
    def test_ensure_compiles_exactly_the_rows_asked_for(self):
        compiled = ReplayableTrace(get_workload("gcc"), seed=2).compiled
        assert compiled.ensure(100) == 100
        assert compiled.ensure(350) == 350
        assert compiled.ensure(200) == 350
        assert compiled.length == 350
        assert not compiled.finite


class TestCachedTrace:
    def setup_method(self):
        clear_trace_cache()

    def teardown_method(self):
        clear_trace_cache()

    def test_same_profile_and_seed_share_a_trace(self):
        profile = get_workload("gcc")
        assert cached_trace(profile, seed=1) is cached_trace(profile, seed=1)
        assert cached_trace(profile, seed=1).compiled is cached_trace(profile, seed=1).compiled

    def test_make_trace_is_the_shared_compiled_trace(self):
        # perfbench compiles the columns through cached_trace(...).compiled
        # before its timed jobs and then checks that they wrote no row, which
        # holds only if every job reads this very object.
        profile = get_workload("gcc")
        for seed in (1, 1335):
            assert make_trace(profile, seed=seed) is cached_trace(profile, seed=seed).compiled

    def test_different_seeds_get_distinct_traces(self):
        profile = get_workload("gcc")
        assert cached_trace(profile, seed=1) is not cached_trace(profile, seed=2)

    def test_different_profiles_get_distinct_traces(self):
        assert cached_trace(get_workload("gcc"), seed=1) is not cached_trace(
            get_workload("em3d"), seed=1
        )

    def test_description_edits_share_one_cached_stream(self):
        # Doc-only fields must not key the cache: a profile whose description
        # was edited replays the exact same cached trace object.
        profile = get_workload("gcc")
        edited = profile.with_overrides(description="reworded documentation")
        assert cached_trace(profile, seed=1) is cached_trace(edited, seed=1)

    def test_paper_provenance_edits_share_one_cached_stream(self):
        profile = get_workload("gcc")
        edited = profile.with_overrides(
            paper_dataset="retyped input", paper_window="retyped window"
        )
        assert cached_trace(profile, seed=1) is cached_trace(edited, seed=1)

    def test_generation_parameter_edits_still_miss(self):
        # The key must stay sensitive to everything that shapes the stream.
        profile = get_workload("gcc")
        edited = profile.with_overrides(load_fraction=profile.load_fraction + 0.01)
        assert cached_trace(profile, seed=1) is not cached_trace(edited, seed=1)

    def test_cache_is_bounded(self):
        gcc = get_workload("gcc")
        first = cached_trace(gcc, seed=0)
        recent = [cached_trace(gcc, seed=seed) for seed in range(1, DEFAULT_CACHE_TRACES + 1)]
        # The oldest trace was evicted; the DEFAULT_CACHE_TRACES newest stay.
        assert all(cached_trace(gcc, seed=seed) is trace for seed, trace in enumerate(recent, 1))
        assert cached_trace(gcc, seed=0) is not first
