"""Tests for the branch-prediction substrate."""

import dataclasses
import random

import pytest

from repro.branch import BranchTargetBuffer, HybridPredictor, build_predictor
from repro.timing.tables import (
    ADAPTIVE_ICACHE_CONFIGS,
    OPTIMIZED_ICACHE_CONFIGS,
    BranchPredictorGeometry,
)

BASE_GEOMETRY = ADAPTIVE_ICACHE_CONFIGS[0].predictor


def narrow_geometry(global_history_bits, local_history_bits):
    """1024-entry tables with the given history widths."""
    return BranchPredictorGeometry(
        global_history_bits=global_history_bits,
        gshare_entries=1024,
        meta_entries=1024,
        local_history_bits=local_history_bits,
        local_bht_entries=1024,
        local_pht_entries=1024,
    )


class TestGshare:
    def test_learns_a_strongly_biased_branch(self):
        predictor = HybridPredictor(BASE_GEOMETRY)
        pc = 0x4000
        for _ in range(50):
            predictor.predict_and_update(pc, True)
        assert predictor.predict_and_update(pc, True) is True

    def test_history_shifts(self):
        """Each outcome shifts into the global history, so a branch that
        repeats the previous branch's random outcome becomes predictable (its
        own local history is random)."""
        predictor = HybridPredictor(narrow_geometry(2, 10))
        rng = random.Random(5)
        correct = 0
        for iteration in range(600):
            outcome = rng.random() < 0.5
            predictor.predict_and_update(0x100, outcome)
            hit = predictor.predict_and_update(0x200, outcome)
            if iteration >= 500:
                correct += hit
        assert correct >= 95

    def test_table_size_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            HybridPredictor(dataclasses.replace(BASE_GEOMETRY, gshare_entries=1000))


class TestLocalPredictor:
    def test_learns_an_alternating_pattern(self):
        # One bit of global history holds only the interleaved random
        # branch's outcome, so only the local component can learn the
        # alternating branch.
        predictor = HybridPredictor(narrow_geometry(1, 10))
        rng = random.Random(11)
        pc = 0x770
        outcome = True
        correct = 0
        for iteration in range(300):
            predictor.predict_and_update(0x1000, rng.random() < 0.5)
            hit = predictor.predict_and_update(pc, outcome)
            if iteration >= 200:
                correct += hit
            outcome = not outcome
        assert correct >= 95

    def test_validation(self):
        with pytest.raises(ValueError):
            HybridPredictor(dataclasses.replace(BASE_GEOMETRY, local_bht_entries=1000))


class TestHybridPredictor:
    def test_builds_from_table2_geometry(self):
        for config in ADAPTIVE_ICACHE_CONFIGS + OPTIMIZED_ICACHE_CONFIGS:
            predictor = build_predictor(config.predictor)
            assert isinstance(predictor, HybridPredictor)

    def test_biased_branches_are_learned(self):
        predictor = build_predictor(ADAPTIVE_ICACHE_CONFIGS[0].predictor)
        rng = random.Random(7)
        branches = {0x1000 + i * 8: rng.random() < 0.5 for i in range(50)}
        # Train.
        for _ in range(40):
            for pc, direction in branches.items():
                predictor.predict_and_update(pc, direction)
        correct = 0
        total = 0
        for _ in range(10):
            for pc, direction in branches.items():
                total += 1
                correct += predictor.predict_and_update(pc, direction)
        assert correct / total > 0.97

    @pytest.mark.parametrize("field", ["meta_entries", "local_pht_entries"])
    def test_table_sizes_must_be_powers_of_two(self, field):
        with pytest.raises(ValueError, match=field):
            HybridPredictor(dataclasses.replace(BASE_GEOMETRY, **{field: 1000}))

    @pytest.mark.parametrize("field", ["global_history_bits", "local_history_bits"])
    def test_history_bits_must_be_positive(self, field):
        with pytest.raises(ValueError, match=field):
            HybridPredictor(dataclasses.replace(BASE_GEOMETRY, **{field: 0}))

    def test_larger_predictor_not_worse_on_many_branches(self):
        """More predictor capacity (Table 2 scaling) should not hurt accuracy
        on a branch population large enough to alias in the small tables."""
        rng = random.Random(3)
        branches = [(0x10000 + i * 4, rng.random() < 0.85) for i in range(3000)]
        small = build_predictor(ADAPTIVE_ICACHE_CONFIGS[0].predictor)
        large = build_predictor(ADAPTIVE_ICACHE_CONFIGS[-1].predictor)
        small_correct = large_correct = total = 0
        for _ in range(4):
            for pc, bias in branches:
                outcome = rng.random() < (0.95 if bias else 0.05)
                total += 1
                small_correct += small.predict_and_update(pc, outcome)
                large_correct += large.predict_and_update(pc, outcome)
        # With 3000 interleaved branches the global history is effectively
        # random, so neither predictor can do much better than its static
        # bias here; the point of the test is that both stay functional and
        # train without error on a large, heavily aliased population.
        assert small_correct / total > 0.3
        assert large_correct / total > 0.3


class TestBTB:
    def test_miss_then_hit(self):
        btb = BranchTargetBuffer(entries=256, associativity=4)
        assert btb.lookup(0x4000) is None
        btb.update(0x4000, 0x8000)
        assert btb.lookup(0x4000) == 0x8000

    def test_capacity_eviction(self):
        btb = BranchTargetBuffer(entries=8, associativity=1)
        # Fill one set with conflicting branches.
        btb.update(0x0, 0x100)
        btb.update(0x0 + 8 * 4, 0x200)
        assert btb.lookup(0x0) is None or btb.lookup(0x0 + 8 * 4) == 0x200

    def test_validation(self):
        with pytest.raises(ValueError):
            BranchTargetBuffer(entries=10, associativity=4)
