"""Properties of the compiled flat-array trace.

The generator's columns are pinned in ``test_trace_columns.py``.  Here: a
caller-supplied ``Instruction`` iterable round-trips through the encode path
and :meth:`CompiledTrace.instruction_at`, encoding the generator's row views
reproduces its columns, and the observation-only fast-path counters never
leak into a result digest.
"""

from __future__ import annotations

import pytest

from repro.analysis.metrics import RunResult
from repro.engine import SimulationJob, SpecKind, run_job
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OpClass
from repro.isa.registers import NO_REGISTER
from repro.scenarios import get_scenario
from repro.workloads import get_workload
from repro.workloads.generator import CompiledTrace, SyntheticTraceGenerator

from tests.golden_digests import (
    FAST_PATH_OBSERVABILITY_FIELDS,
    energy_digest,
    result_digest,
)

COLUMNS = ("pc", "op", "flags", "dest", "src0", "src1", "address", "target", "seq")

#: A hand-written trace touching every encoded field: no sources, one and
#: two sources, fp and int registers, memory addresses, taken and not-taken
#: branches, and a non-branch opclass flagged as a branch.
HAND_WRITTEN = [
    Instruction(pc=0x100, op=OpClass.NOP, seq=0),
    Instruction(pc=0x104, op=OpClass.INT_ALU, sources=("r3",), dest="r4", seq=1),
    Instruction(pc=0x108, op=OpClass.LOAD, sources=("r4",), dest="f9", address=0x2000, seq=2),
    Instruction(pc=0x10C, op=OpClass.FP_MULT, sources=("f9", "f31"), dest="f0", seq=3),
    Instruction(pc=0x110, op=OpClass.STORE, sources=("f0", "r4"), address=0x2008, seq=4),
    Instruction(pc=0x114, op=OpClass.BRANCH, sources=("r4",), taken=True, target=0x100, seq=5),
    Instruction(pc=0x100, op=OpClass.BRANCH, sources=("r31",), target=0x180, seq=6),
    Instruction(pc=0x104, op=OpClass.INT_ALU, is_branch=True, taken=True, target=0x140, seq=7),
]


class TestEncodePath:
    def test_hand_written_trace_round_trips(self):
        compiled = CompiledTrace(HAND_WRITTEN)
        assert compiled.ensure(500) == len(HAND_WRITTEN)
        assert compiled.exhausted
        assert [compiled.instruction_at(i) for i in range(len(HAND_WRITTEN))] == HAND_WRITTEN
        assert compiled.src0[0] == compiled.src1[0] == compiled.dest[0] == NO_REGISTER
        assert compiled.src1[1] == NO_REGISTER

    def test_three_sources_are_rejected(self):
        inst = Instruction(pc=0x100, op=OpClass.INT_ALU, sources=("r1", "r2", "r3"), dest="r4")
        with pytest.raises(ValueError, match="at most two source operands"):
            CompiledTrace([inst]).ensure(1)

    @pytest.mark.parametrize("name", ["gcc", "em3d", "apsi", "art"])
    def test_encoding_row_views_reproduces_the_generator_columns(self, name):
        profile = get_workload(name)
        direct = CompiledTrace(SyntheticTraceGenerator(profile, seed=5))
        encoded = CompiledTrace(SyntheticTraceGenerator(profile, seed=5).instructions())
        assert direct.ensure(3_000) == encoded.ensure(3_000) == 3_000
        for column in COLUMNS:
            assert getattr(direct, column) == getattr(encoded, column), column

    def test_generate_continues_the_stream_across_phases(self):
        # Phases of 1 000 rows: the second call switches phase twice.
        profile = get_scenario("adv-period-half-interval").build_profile()
        whole = SyntheticTraceGenerator(profile, seed=9).generate(2_500)
        generator = SyntheticTraceGenerator(profile, seed=9)
        assert generator.generate(900) + generator.generate(1_600) == whole


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
