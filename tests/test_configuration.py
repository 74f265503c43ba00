"""Tests for machine specifications and the configuration spaces."""

import pytest

from repro.core import (
    AdaptiveConfigIndices,
    ArchitecturalParameters,
    MachineStyle,
    adaptive_mcd_spec,
    base_adaptive_spec,
    best_overall_synchronous_spec,
    synchronous_spec,
)
from repro.core.configuration import adaptive_configuration_space
from repro.core.domains import Domain
from repro.timing.tables import ISSUE_QUEUE_FREQUENCY_GHZ


class TestArchitecturalParameters:
    def test_defaults_match_table5(self):
        params = ArchitecturalParameters()
        assert params.fetch_queue_entries == 16
        assert params.decode_width == 8
        assert params.issue_width == 6
        assert params.retire_width == 11
        assert params.reorder_buffer_entries == 256
        assert params.load_store_queue_entries == 64
        assert params.physical_int_registers == 96
        assert params.physical_fp_registers == 96
        assert params.int_alus == 4
        assert params.fp_alus == 4
        assert params.memory_first_chunk_ns == 80.0
        assert params.mispredict_front_end_cycles_synchronous == 9
        assert params.mispredict_integer_cycles_synchronous == 7
        assert params.mispredict_front_end_cycles_adaptive == 10
        assert params.mispredict_integer_cycles_adaptive == 9


class TestConfigIndices:
    def test_valid_queue_sizes_only(self):
        with pytest.raises(ValueError):
            AdaptiveConfigIndices(int_queue_size=24)
        with pytest.raises(ValueError):
            AdaptiveConfigIndices(fp_queue_size=128)

    def test_describe_roundtrip_format(self):
        indices = AdaptiveConfigIndices(1, 2, 32, 48)
        assert indices.describe() == "ic1/dc2/iq32/fq48"

    @pytest.mark.parametrize(
        "field, value",
        [("icache_index", -1), ("icache_index", 16), ("dcache_index", -1), ("dcache_index", 4)],
    )
    def test_out_of_range_indices_are_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            AdaptiveConfigIndices(**{field: value})

    def test_spec_builders_accept_their_whole_range_only(self):
        assert synchronous_spec(AdaptiveConfigIndices(15, 3)).icache.name
        assert adaptive_mcd_spec(AdaptiveConfigIndices(3, 3)).icache.name == "64k4W"
        with pytest.raises(ValueError, match=r"icache_index must be in \[0, 3\]"):
            adaptive_mcd_spec(AdaptiveConfigIndices(icache_index=4))

    def test_adaptive_space_has_256_points(self):
        assert len(list(adaptive_configuration_space())) == 256


class TestAdaptiveSpec:
    def test_base_spec_is_smallest_and_fastest(self):
        spec = base_adaptive_spec()
        assert spec.style is MachineStyle.ADAPTIVE_MCD
        assert spec.icache.name == "16k1W"
        assert spec.dcache.name == "32k1W/256k1W"
        assert spec.int_queue_size == 16
        assert spec.use_b_partitions

    def test_domain_frequencies_follow_structures(self):
        spec = adaptive_mcd_spec(AdaptiveConfigIndices(2, 1, 32, 64))
        assert spec.frequency(Domain.FRONT_END) == spec.icache.frequency_ghz
        assert spec.frequency(Domain.LOAD_STORE) == spec.dcache.frequency_ghz
        assert spec.frequency(Domain.INTEGER) == ISSUE_QUEUE_FREQUENCY_GHZ[32]
        assert spec.frequency(Domain.FLOATING_POINT) == ISSUE_QUEUE_FREQUENCY_GHZ[64]

    def test_adaptive_penalties_are_higher(self):
        adaptive = adaptive_mcd_spec()
        synchronous = best_overall_synchronous_spec()
        assert adaptive.mispredict_front_end_cycles == synchronous.mispredict_front_end_cycles + 1
        assert adaptive.mispredict_integer_cycles == synchronous.mispredict_integer_cycles + 2

    def test_program_adaptive_disables_b_partitions(self):
        spec = adaptive_mcd_spec(AdaptiveConfigIndices(), use_b_partitions=False)
        assert not spec.use_b_partitions
        assert spec.inter_domain_sync

    def test_describe_mentions_structures(self):
        text = base_adaptive_spec().describe()
        assert "16k1W" in text and "IQ16" in text


class TestSynchronousSpec:
    def test_single_global_frequency(self):
        spec = synchronous_spec(AdaptiveConfigIndices(0, 0, 16, 16))
        frequencies = set(spec.frequencies_ghz.values())
        assert len(frequencies) == 1

    def test_global_frequency_is_slowest_structure(self):
        spec = synchronous_spec(AdaptiveConfigIndices(4, 0, 16, 16))  # 64k1W icache
        assert spec.frequency(Domain.FRONT_END) == pytest.approx(
            min(spec.icache.frequency_ghz, spec.dcache.frequency_ghz,
                ISSUE_QUEUE_FREQUENCY_GHZ[16])
        )

    def test_no_sync_costs_and_no_b_partitions(self):
        spec = best_overall_synchronous_spec()
        assert not spec.inter_domain_sync
        assert not spec.use_b_partitions

    def test_best_overall_matches_paper_section4(self):
        spec = best_overall_synchronous_spec()
        assert spec.icache.name == "64k1W"
        assert spec.dcache.name == "32k1W/256k1W"
        assert spec.int_queue_size == 16
        assert spec.fp_queue_size == 16

    def test_larger_issue_queue_lowers_global_clock(self):
        small = synchronous_spec(AdaptiveConfigIndices(0, 0, 16, 16))
        large = synchronous_spec(AdaptiveConfigIndices(0, 0, 64, 16))
        assert large.frequency(Domain.INTEGER) < small.frequency(Domain.INTEGER)
