"""Tests for the main-memory model and the load/store-domain hierarchy."""

import pytest

from repro.caches import CacheHierarchy, MainMemory
from repro.timing.tables import ADAPTIVE_DCACHE_CONFIGS


class TestMainMemory:
    def test_line_fill_latency_matches_table5(self):
        memory = MainMemory()
        # 80 ns first chunk + 7 subsequent 8-byte chunks at 2 ns each.
        assert memory.line_fill_latency_ps(64) == 80_000 + 7 * 2_000

    def test_row_hit_is_cheaper(self):
        memory = MainMemory()
        first = memory.access(0x1000, 64, now_ps=0)
        second = memory.access(0x1040, 64, now_ps=first)
        assert second - first < first - 0

    def test_channel_occupancy_serialises_bursts(self):
        memory = MainMemory()
        first = memory.access(0x100000, 64, now_ps=0)
        second = memory.access(0x900000, 64, now_ps=0)
        assert second > first - 80_000  # the second access queued behind the first

    def test_stats_count_accesses_from_zero(self):
        memory = MainMemory()
        assert memory.stats.accesses == 0
        memory.access(0, 64, 0)
        memory.access(64, 64, 0)
        assert memory.stats.accesses == 2

    def test_requires_at_least_one_bank(self):
        with pytest.raises(ValueError):
            MainMemory(banks=0)


class TestCacheHierarchy:
    def test_default_is_base_configuration(self):
        hierarchy = CacheHierarchy()
        assert hierarchy.config.name == "32k1W/256k1W"
        assert hierarchy.l1d.a_ways == 1
        assert hierarchy.l2.a_ways == 1

    def test_l1_hit_latency(self):
        hierarchy = CacheHierarchy(b_enabled=False)
        period = 568
        hierarchy.access_data(0x1000, is_store=False, now_ps=0, period_ps=period)
        completion = hierarchy.access_data(
            0x1000, is_store=False, now_ps=10_000, period_ps=period
        )
        assert hierarchy.stats.l1_hits_a == 1
        assert completion == 10_000 + 2 * period

    def test_miss_goes_to_memory(self):
        hierarchy = CacheHierarchy(b_enabled=False)
        completion = hierarchy.access_data(0x5000, is_store=False, now_ps=0, period_ps=568)
        assert hierarchy.memory.stats.accesses == 1
        assert completion > 80_000

    def test_l2_hit_after_l1_eviction(self):
        hierarchy = CacheHierarchy(b_enabled=False)
        period = 568
        sets = hierarchy.l1d.num_sets
        hierarchy.access_data(0x1000, is_store=False, now_ps=0, period_ps=period)
        # Evict from the 1-way A partition by touching a conflicting block.
        hierarchy.access_data(0x1000 + sets * 64, is_store=False, now_ps=200_000, period_ps=period)
        hierarchy.access_data(0x1000, is_store=False, now_ps=400_000, period_ps=period)
        assert hierarchy.stats.l1_misses == 3
        assert hierarchy.stats.l2_hits_a == 1
        assert hierarchy.memory.stats.accesses == 2

    def test_b_partition_absorbs_conflicts_in_adaptive_mode(self):
        hierarchy = CacheHierarchy(b_enabled=True)
        period = 568
        sets = hierarchy.l1d.num_sets
        hierarchy.access_data(0x1000, is_store=False, now_ps=0, period_ps=period)
        hierarchy.access_data(0x1000 + sets * 64, is_store=False, now_ps=200_000, period_ps=period)
        hierarchy.access_data(0x1000, is_store=False, now_ps=400_000, period_ps=period)
        assert hierarchy.stats.l1_hits_b == 1
        assert hierarchy.memory.stats.accesses == 2

    def test_apply_config_changes_partitioning(self):
        hierarchy = CacheHierarchy()
        hierarchy.apply_config(ADAPTIVE_DCACHE_CONFIGS[2])
        assert hierarchy.l1d.a_ways == 4
        assert hierarchy.l2.a_ways == 4
        hierarchy.apply_config(ADAPTIVE_DCACHE_CONFIGS[3])
        # The largest configuration has no B partition.
        assert hierarchy.l1d.b_ways == 0

    def test_stats_accumulate(self):
        hierarchy = CacheHierarchy()
        hierarchy.access_data(0x100, is_store=False, now_ps=0, period_ps=568)
        hierarchy.access_data(0x200, is_store=True, now_ps=0, period_ps=568)
        assert hierarchy.stats.loads == 1
        assert hierarchy.stats.stores == 1

    def test_warming_installs_blocks_and_counts_nothing(self):
        hierarchy = CacheHierarchy()
        hierarchy.l2.warm(hierarchy.l1d.warm([0x100]))
        assert hierarchy.stats.loads == 0
        hierarchy.access_data(0x100, is_store=False, now_ps=0, period_ps=568)
        assert hierarchy.stats.l1_hits_a == 1

    def test_instruction_miss_service_from_l2(self):
        hierarchy = CacheHierarchy()
        period = 568
        first = hierarchy.access_l2(0x40_0000, now_ps=0, period_ps=period)
        assert first > 80_000  # cold: memory
        second = hierarchy.access_l2(0x40_0000, now_ps=first, period_ps=period)
        assert second - first == 12 * period  # now an L2 A-partition hit
