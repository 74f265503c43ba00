"""Tests for the CACTI-style and Palacharla timing models and the calibrated
frequency tables (Tables 1-3, Figures 2-4)."""

import pytest

from repro.timing import (
    ADAPTIVE_DCACHE_CONFIGS,
    ADAPTIVE_ICACHE_CONFIGS,
    ISSUE_QUEUE_FREQUENCY_CURVE,
    ISSUE_QUEUE_FREQUENCY_GHZ,
    ISSUE_QUEUE_SIZES,
    OPTIMAL_DCACHE_CONFIGS,
    OPTIMIZED_ICACHE_CONFIGS,
    CacheGeometry,
    cache_access_time_ns,
    issue_queue_delay_ns,
    issue_queue_frequency_ghz,
    selection_levels,
    adaptive_dcache_config,
    adaptive_icache_config,
    optimal_dcache_config,
    optimized_icache_config,
    issue_queue_frequency,
)
from repro.timing.cacti import cache_frequency_ghz
from repro.timing.palacharla import wakeup_delay_ns


class TestCactiModel:
    def test_access_time_grows_with_capacity(self):
        small = CacheGeometry(size_kb=16, associativity=1, sub_banks=16)
        large = CacheGeometry(size_kb=64, associativity=1, sub_banks=16)
        assert cache_access_time_ns(large) > cache_access_time_ns(small)

    def test_access_time_grows_with_associativity(self):
        direct = CacheGeometry(size_kb=32, associativity=1, sub_banks=32)
        assoc = CacheGeometry(size_kb=32, associativity=4, sub_banks=32)
        assert cache_access_time_ns(assoc) > cache_access_time_ns(direct)

    def test_direct_mapped_to_two_way_is_a_large_step(self):
        direct = CacheGeometry(size_kb=16, associativity=1, sub_banks=32)
        two_way = CacheGeometry(size_kb=32, associativity=2, sub_banks=32)
        ratio = cache_access_time_ns(two_way) / cache_access_time_ns(direct)
        assert ratio > 1.15

    def test_frequency_is_inverse_of_access_time(self):
        fast = CacheGeometry(size_kb=16, associativity=1, sub_banks=32)
        slow = CacheGeometry(size_kb=256, associativity=8, sub_banks=32)
        assert cache_frequency_ghz(fast) > cache_frequency_ghz(slow)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            CacheGeometry(size_kb=0, associativity=1, sub_banks=1)
        with pytest.raises(ValueError):
            CacheGeometry(size_kb=32, associativity=0, sub_banks=1)
        with pytest.raises(ValueError):
            CacheGeometry(size_kb=32, associativity=1, sub_banks=0)

    def test_num_sets(self):
        geometry = CacheGeometry(size_kb=32, associativity=1, sub_banks=32)
        assert geometry.num_sets == 32 * 1024 // 64
        geometry8 = CacheGeometry(size_kb=256, associativity=8, sub_banks=32)
        assert geometry8.num_sets == 256 * 1024 // (8 * 64)


class TestPalacharlaModel:
    def test_selection_levels_step_at_16_entries(self):
        assert selection_levels(16) == 2
        assert selection_levels(20) == 3
        assert selection_levels(64) == 3

    def test_wakeup_grows_with_entries(self):
        assert wakeup_delay_ns(64) > wakeup_delay_ns(16)

    def test_delay_monotonic_in_entries(self):
        delays = [issue_queue_delay_ns(entries) for entries in range(16, 68, 4)]
        assert all(b >= a for a, b in zip(delays, delays[1:]))

    def test_frequency_step_between_16_and_20(self):
        drop = 1 - issue_queue_frequency_ghz(20) / issue_queue_frequency_ghz(16)
        gentle = 1 - issue_queue_frequency_ghz(64) / issue_queue_frequency_ghz(20)
        assert drop > 0.15
        assert gentle < drop

    def test_invalid_entries(self):
        with pytest.raises(ValueError):
            selection_levels(0)
        with pytest.raises(ValueError):
            wakeup_delay_ns(0)


class TestFrequencyTables:
    def test_four_adaptive_dcache_configs(self):
        assert len(ADAPTIVE_DCACHE_CONFIGS) == 4
        assert [c.ways for c in ADAPTIVE_DCACHE_CONFIGS] == [1, 2, 4, 8]

    def test_dcache_capacities_match_table1(self):
        sizes = [(c.l1.size_kb, c.l2.size_kb) for c in ADAPTIVE_DCACHE_CONFIGS]
        assert sizes == [(32, 256), (64, 512), (128, 1024), (256, 2048)]

    def test_dcache_frequency_decreases_with_size(self):
        freqs = [c.frequency_ghz for c in ADAPTIVE_DCACHE_CONFIGS]
        assert freqs == sorted(freqs, reverse=True)

    def test_adaptive_dcache_minimal_config_matches_optimal(self):
        assert (
            ADAPTIVE_DCACHE_CONFIGS[0].frequency_ghz
            == OPTIMAL_DCACHE_CONFIGS[0].frequency_ghz
        )

    def test_adaptive_dcache_within_about_5_percent_of_optimal(self):
        """Figure 2: the adaptive organisation is ~5% slower when upsized."""
        for adaptive, optimal in zip(
            ADAPTIVE_DCACHE_CONFIGS[1:], OPTIMAL_DCACHE_CONFIGS[1:]
        ):
            gap = 1 - adaptive.frequency_ghz / optimal.frequency_ghz
            assert 0.0 <= gap <= 0.10

    def test_dcache_b_latency_only_for_partial_configs(self):
        assert ADAPTIVE_DCACHE_CONFIGS[0].l1_latency == (2, 8)
        assert ADAPTIVE_DCACHE_CONFIGS[-1].l1_latency == (2, None)
        assert ADAPTIVE_DCACHE_CONFIGS[0].l2_latency == (12, 43)
        assert ADAPTIVE_DCACHE_CONFIGS[-1].l2_latency == (12, None)

    def test_four_adaptive_icache_configs_match_table2(self):
        assert [c.size_kb for c in ADAPTIVE_ICACHE_CONFIGS] == [16, 32, 48, 64]
        assert [c.ways for c in ADAPTIVE_ICACHE_CONFIGS] == [1, 2, 3, 4]

    def test_icache_predictor_scales_with_cache(self):
        """Table 2: the gshare PHT grows from 16 K to 64 K entries."""
        small = ADAPTIVE_ICACHE_CONFIGS[0].predictor
        large = ADAPTIVE_ICACHE_CONFIGS[-1].predictor
        assert (small.gshare_entries, large.gshare_entries) == (16_384, 65_536)
        assert large.local_bht_entries > small.local_bht_entries

    def test_adaptive_icache_frequency_falls_strictly_with_size(self):
        """Figure 3: each larger adaptive I-cache is strictly slower."""
        freqs = [c.frequency_ghz for c in ADAPTIVE_ICACHE_CONFIGS]
        assert all(larger < smaller for smaller, larger in zip(freqs, freqs[1:]))

    def test_icache_dm_to_2way_drop_is_large(self):
        """Figure 3: ~31% frequency drop from direct-mapped to 2-way."""
        drop = 1 - (
            ADAPTIVE_ICACHE_CONFIGS[1].frequency_ghz
            / ADAPTIVE_ICACHE_CONFIGS[0].frequency_ghz
        )
        assert 0.25 <= drop <= 0.37

    def test_optimal_64k_dm_about_27_percent_faster_than_adaptive_64k(self):
        optimal = optimized_icache_config("64k1W").frequency_ghz
        adaptive = adaptive_icache_config("64k4W").frequency_ghz
        assert 1.20 <= optimal / adaptive <= 1.35

    def test_sixteen_optimized_icache_configs(self):
        """Table 3: sixteen synchronous I-caches from 4 KB to 64 KB."""
        sizes = [c.size_kb for c in OPTIMIZED_ICACHE_CONFIGS]
        assert len(sizes) == 16
        assert (min(sizes), max(sizes)) == (4, 64)

    def test_optimized_direct_mapped_faster_than_same_size_set_associative(self):
        assert (
            optimized_icache_config("64k1W").frequency_ghz
            > optimized_icache_config("64k4W").frequency_ghz
        )

    def test_issue_queue_sizes(self):
        assert ISSUE_QUEUE_SIZES == (16, 32, 48, 64)

    def test_issue_queue_frequency_table(self):
        freqs = [ISSUE_QUEUE_FREQUENCY_GHZ[size] for size in ISSUE_QUEUE_SIZES]
        assert freqs == sorted(freqs, reverse=True)
        assert issue_queue_frequency(16) > issue_queue_frequency(32)

    def test_issue_queue_frequency_rejects_unknown_sizes(self):
        with pytest.raises(ValueError):
            issue_queue_frequency(24)

    def test_issue_queue_curve_covers_16_to_64(self):
        assert set(ISSUE_QUEUE_FREQUENCY_CURVE) == set(range(16, 68, 4))
        values = [ISSUE_QUEUE_FREQUENCY_CURVE[s] for s in range(16, 68, 4)]
        assert values == sorted(values, reverse=True)

    def test_issue_queue_curve_steps_most_from_16_to_20_entries(self):
        """Figure 4: the 16 -> 20 entry step (2 -> 3 selection levels) is the big one."""
        first_step = 1 - ISSUE_QUEUE_FREQUENCY_CURVE[20] / ISSUE_QUEUE_FREQUENCY_CURVE[16]
        later_steps = 1 - ISSUE_QUEUE_FREQUENCY_CURVE[64] / ISSUE_QUEUE_FREQUENCY_CURVE[20]
        assert first_step > 0.15
        assert first_step > later_steps / 2

    def test_lookup_by_name_and_index(self):
        assert adaptive_dcache_config(0).name == "32k1W/256k1W"
        assert adaptive_dcache_config("32k1W/256k1W").ways == 1
        assert optimal_dcache_config(3).ways == 8
        assert adaptive_icache_config("64k4W").size_kb == 64

    def test_lookup_unknown_name_raises(self):
        with pytest.raises(KeyError):
            adaptive_dcache_config("nonexistent")
