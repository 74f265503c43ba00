"""Tests for the Accounting Cache: MRU order, set mapping and accounting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.caches import AccessOutcome, AccountingCache, CacheIntervalStats
from repro.timing.cacti import CacheGeometry


def cache_of(ways):
    """A cache of *ways* ways and 256 sets, all of them in the A partition."""
    geometry = CacheGeometry(size_kb=16 * ways, associativity=ways, sub_banks=32)
    return AccountingCache(geometry, a_ways=ways)


def in_set_zero(cache, block):
    """Address of the *block*-th distinct block that maps to set 0."""
    return block * cache.num_sets * 64


def mru_position(cache, address):
    """Access *address*; return the block's previous MRU position (-1 on a
    miss), read off the interval counters."""
    stats = cache.interval_stats
    before = list(stats.hits_by_mru_position)
    cache.access(address)
    for position, count in enumerate(stats.hits_by_mru_position):
        if count != before[position]:
            return position
    return -1


class TestMRUOrder:
    def test_miss_then_hit(self):
        cache = cache_of(4)
        assert mru_position(cache, 0x2800) == -1
        assert mru_position(cache, 0x2800) == 0

    def test_mru_ordering(self):
        cache = cache_of(4)
        for block in (1, 2, 3):
            mru_position(cache, in_set_zero(cache, block))
        # MRU order is now 3, 2, 1.
        assert mru_position(cache, in_set_zero(cache, 1)) == 2
        # ... and now 1, 3, 2.
        assert mru_position(cache, in_set_zero(cache, 3)) == 1
        assert mru_position(cache, in_set_zero(cache, 2)) == 2

    def test_eviction_is_lru(self):
        cache = cache_of(2)
        for block in (1, 2, 3):  # the third block evicts block 1
            mru_position(cache, in_set_zero(cache, block))
        assert mru_position(cache, in_set_zero(cache, 2)) == 1
        assert mru_position(cache, in_set_zero(cache, 1)) == -1

    def test_requires_at_least_one_way(self):
        with pytest.raises(ValueError):
            AccountingCache(CacheGeometry(size_kb=32, associativity=0, sub_banks=32))

    @given(st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_stack_property(self, blocks):
        """The LRU stack property: a hit in a small cache implies a hit in any
        larger cache for the same access sequence."""
        small = cache_of(2)
        large = cache_of(6)
        for block in blocks:
            pos_small = mru_position(small, in_set_zero(small, block))
            pos_large = mru_position(large, in_set_zero(large, block))
            if pos_small >= 0:
                assert 0 <= pos_large <= pos_small


class TestSetMapping:
    def test_block_and_set_mapping(self):
        cache = cache_of(1)
        stride = cache.num_sets * 64
        cache.access(0x1200)
        assert cache.access(0x1234) is AccessOutcome.HIT_A  # same 64-byte block
        assert cache.access(0x1240) is AccessOutcome.MISS  # the next block
        # One set and one block further on: a different set, so no eviction.
        cache.access(0x1240 + stride + 64)
        assert cache.access(0x1240) is AccessOutcome.HIT_A
        # A whole stride on: the same set, which evicts the block.
        cache.access(0x1240 + stride)
        assert cache.access(0x1240) is AccessOutcome.MISS

    def test_lookup_miss_then_hit(self):
        cache = cache_of(4)
        assert cache.access(0x4000) is AccessOutcome.MISS
        assert cache.access(0x4000) is AccessOutcome.HIT_A
        stats = cache.interval_stats
        assert stats.accesses == 2
        assert stats.misses == 1
        assert stats.hits_by_mru_position == [1, 0, 0, 0]

    def test_same_block_different_words_hit(self):
        cache = cache_of(4)
        cache.access(0x4000)
        assert mru_position(cache, 0x4038) == 0

    def test_conflict_evictions_in_direct_mapped(self):
        cache = cache_of(1)
        stride = cache.num_sets * 64
        cache.access(0)
        cache.access(stride)  # maps to the same set, evicts block 0
        assert cache.access(0) is AccessOutcome.MISS


class TestAccountingCache:
    def geometry(self):
        return CacheGeometry(size_kb=256, associativity=8, sub_banks=32)

    def test_a_partition_hit(self):
        cache = AccountingCache(self.geometry(), a_ways=2)
        cache.access(0x1000)
        assert cache.access(0x1000) is AccessOutcome.HIT_A

    def test_b_partition_hit(self):
        cache = AccountingCache(self.geometry(), a_ways=1, b_enabled=True)
        sets = cache.num_sets
        # Two blocks in the same set: the second access pushes the first to
        # MRU position 1, which is in the B partition when a_ways == 1.
        cache.access(0x1000)
        cache.access(0x1000 + sets * 64)
        assert cache.access(0x1000) is AccessOutcome.HIT_B

    def test_b_disabled_turns_b_hits_into_misses(self):
        cache = AccountingCache(self.geometry(), a_ways=1, b_enabled=False)
        sets = cache.num_sets
        cache.access(0x1000)
        cache.access(0x1000 + sets * 64)
        assert cache.access(0x1000) is AccessOutcome.MISS

    def test_interval_counters_reconstruct_all_configs(self):
        cache = AccountingCache(self.geometry(), a_ways=1)
        sets = cache.num_sets
        addresses = [0x1000 + i * sets * 64 for i in range(4)]
        for address in addresses:
            cache.access(address)
        # Re-touch them most-recently-used-last.
        for address in addresses:
            cache.access(address)
        stats = cache.interval_stats
        # With 4 distinct blocks in one set re-touched in order, the second
        # pass hits at MRU position 3 each time.
        a_hits, b_hits, misses = stats.what_if(4, b_enabled=True)
        assert a_hits == 4
        assert misses == 4
        a_hits1, b_hits1, misses1 = stats.what_if(1, b_enabled=True)
        assert a_hits1 == 0
        assert b_hits1 == 4

    def test_what_if_without_b_moves_hits_to_misses(self):
        # One hit at MRU position 0, one at position 2 and one miss.
        stats = CacheIntervalStats(
            ways=4, accesses=3, misses=1, hits_by_mru_position=[1, 0, 1, 0]
        )
        assert stats.what_if(1, b_enabled=True) == (1, 1, 1)
        assert stats.what_if(1, b_enabled=False) == (1, 0, 2)

    @pytest.mark.parametrize("b_enabled", [True, False])
    def test_probe_width_histogram(self, b_enabled):
        cache = AccountingCache(self.geometry(), a_ways=1, b_enabled=b_enabled)
        sets = cache.num_sets
        cache.access(0x1000)  # miss: A probe, then B probe when enabled
        cache.access(0x1000)  # A hit
        cache.access(0x1000 + sets * 64)  # miss
        cache.access(0x1000)  # MRU position 1: B hit, or a miss without B
        if b_enabled:
            assert cache.access_profile == {1: 4, 7: 3}
        else:
            assert cache.access_profile == {1: 4}

    def test_interval_reset(self):
        cache = AccountingCache(self.geometry(), a_ways=1)
        cache.access(0x1000)
        cache.reset_interval()
        assert cache.interval_stats.accesses == 0
        assert sum(cache.interval_stats.hits_by_mru_position) == 0

    def test_set_a_ways_bounds(self):
        cache = AccountingCache(self.geometry(), a_ways=1)
        with pytest.raises(ValueError):
            cache.set_a_ways(0)
        with pytest.raises(ValueError):
            cache.set_a_ways(9)
        cache.set_a_ways(8)
        assert cache.a_ways == 8
        assert cache.b_ways == 0

    def test_repartitioning_preserves_contents(self):
        cache = AccountingCache(self.geometry(), a_ways=1)
        cache.access(0x1000)
        cache.set_a_ways(4)
        assert cache.access(0x1000) is AccessOutcome.HIT_A

    @given(
        st.lists(st.integers(min_value=0, max_value=40), min_size=5, max_size=300),
        st.sampled_from([1, 2, 4, 8]),
    )
    @settings(max_examples=40)
    def test_what_if_matches_direct_simulation(self, block_ids, a_ways):
        """The counter-based reconstruction must match simulating that
        configuration directly (the core Accounting Cache property)."""
        geometry = CacheGeometry(size_kb=256, associativity=8, sub_banks=32)
        accounting = AccountingCache(geometry, a_ways=1, b_enabled=True)
        direct = AccountingCache(geometry, a_ways=a_ways, b_enabled=True)
        sets = accounting.num_sets
        addresses = [0x1000 + (b % 3) * 64 + (b // 3) * sets * 64 for b in block_ids]
        direct_a = direct_b = direct_miss = 0
        for address in addresses:
            accounting.access(address)
            outcome = direct.access(address)
            if outcome is AccessOutcome.HIT_A:
                direct_a += 1
            elif outcome is AccessOutcome.HIT_B:
                direct_b += 1
            else:
                direct_miss += 1
        a_hits, b_hits, misses = accounting.interval_stats.what_if(
            a_ways, b_enabled=True
        )
        assert (a_hits, b_hits, misses) == (direct_a, direct_b, direct_miss)
