"""Properties of the compiled flat-array trace.

The generator's columns are pinned in ``test_trace_columns.py``.  Here: a
row is 17 bytes with 32-bit addresses, and a profile whose addresses would
not fit is rejected before any row is written; a caller-filled trace ends
at its last row, the generator writes the same stream whatever steps its
rows are asked for in, and the observation-only fast-path counters never
leak into a result digest.
"""

from __future__ import annotations

import pytest

from repro.analysis.metrics import RunResult
from repro.engine import SimulationJob, SpecKind, run_job
from repro.isa.opcodes import OpClass
from repro.scenarios import get_scenario
from repro.workloads import PhaseSpec, WorkloadProfile, get_workload
from repro.workloads.generator import CompiledTrace, SyntheticTraceGenerator
from repro.workloads.trace_cache import cached_trace, clear_trace_cache

from tests.golden_digests import (
    FAST_PATH_OBSERVABILITY_FIELDS,
    energy_digest,
    result_digest,
)
from tests.trace_rows import COLUMNS, append_row


#: 4 GiB: a segment this large reaches 2**32 from any base address.
HUGE_KB = 4_194_304


class TestCompactLayout:
    """Eight columns at 17 bytes a row, with 32-bit addresses."""

    def test_a_row_is_17_bytes(self):
        trace = CompiledTrace()
        itemsize = {column: getattr(trace, column).itemsize for column in COLUMNS}
        assert sum(itemsize.values()) == 17
        assert itemsize["pc"] == itemsize["address"] == itemsize["target"] == 4

    @pytest.mark.parametrize(
        ("field", "in_phase"),
        [("data_footprint_kb", False), ("data_footprint_kb", True), ("code_footprint_kb", False)],
    )
    def test_a_segment_past_32_bits_is_rejected_before_any_row(self, field, in_phase):
        if in_phase:
            phases = (PhaseSpec(length=500), PhaseSpec(length=500, overrides={field: HUGE_KB}))
            profile = WorkloadProfile(name="huge", suite="test", phases=phases)
            context = "profile 'huge', phase 1"
        else:
            profile = WorkloadProfile(name="huge", suite="test", **{field: HUGE_KB})
            context = "profile 'huge'"
        clear_trace_cache()
        try:
            # The second call raises too: the cache kept no partly written trace.
            for _ in range(2):
                with pytest.raises(ValueError, match=f"^{context}: {field} "):
                    cached_trace(profile, seed=1)
        finally:
            clear_trace_cache()


class TestEncodePath:
    """The two ways rows reach the columns: a caller appends them, or the
    generator writes them as ``ensure`` asks."""

    def test_caller_filled_trace_ends_at_its_last_row(self):
        trace = CompiledTrace()
        append_row(trace, 0x100, OpClass.NOP)
        append_row(trace, 0x104, OpClass.INT_ALU, dest=4, sources=(3,))
        assert trace.finite
        assert trace.ensure(500) == trace.length == 2

    def test_generate_continues_the_stream_across_phases(self):
        # Phases of 1 000 rows: the second step switches phase twice.
        profile = get_scenario("adv-period-half-interval").build_profile()
        whole = CompiledTrace(SyntheticTraceGenerator(profile, seed=9))
        assert whole.ensure(2_500) == 2_500
        stepped = CompiledTrace(SyntheticTraceGenerator(profile, seed=9))
        assert stepped.ensure(900) == 900
        assert stepped.ensure(2_500) == 2_500
        assert not stepped.finite
        for column in COLUMNS:
            assert getattr(stepped, column) == getattr(whole, column), column


class TestCounterSchemaCompatibility:
    """Observation-only fast-path counters: defaulted fields, digest-inert."""

    def run_result(self) -> RunResult:
        job = SimulationJob(
            profile=get_workload("gcc"),
            spec_kind=SpecKind.BASE_ADAPTIVE,
            use_b_partitions=True,
            phase_adaptive=True,
            window=1_200,
            warmup=800,
        )
        return run_job(job)

    def test_old_schema_json_still_deserialises(self):
        result = self.run_result()
        data = result.to_dict()
        for name in FAST_PATH_OBSERVABILITY_FIELDS:
            assert name in data
            del data[name]
        revived = RunResult.from_dict(data)
        for name in FAST_PATH_OBSERVABILITY_FIELDS:
            assert getattr(revived, name) == 0
        # Every non-counter field survives the round trip.
        revived_data = revived.to_dict()
        for name, value in data.items():
            assert revived_data[name] == value

    def test_digests_invariant_under_counter_mutation(self):
        result = self.run_result()
        timing_before = result_digest(result)
        energy_before = energy_digest(result)
        for offset, name in enumerate(sorted(FAST_PATH_OBSERVABILITY_FIELDS)):
            setattr(result, name, 10_000 + offset)
        assert result_digest(result) == timing_before
        assert energy_digest(result) == energy_before

    def test_counters_do_not_affect_equality(self):
        result = self.run_result()
        other = self.run_result()
        assert result == other
        other.horizon_skipped_edges += 1
        assert result == other  # compare=False fields
