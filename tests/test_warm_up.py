"""Warm-up is functional warming: the measured run sees the same warm state.

``MCDProcessor._warm_up`` makes one pass per structure over the warm-up rows
(the I-cache over fetch-block changes, the predictor and BTB over branches,
the L1-D and then the L2 over the memory rows' addresses through
``AccountingCache.warm``) and counts nothing.  These tests hold it to the
row-by-row loop that sends every row through the measured-run entry points
(``AccountingCache.access``, ``CacheHierarchy.access_data``), and
``AccountingCache.warm`` to ``AccountingCache.access`` on every shipped
physical array.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.caches import AccessOutcome, AccountingCache, CacheIntervalStats
from repro.core.configuration import (
    AdaptiveConfigIndices,
    adaptive_mcd_spec,
    base_adaptive_spec,
    best_overall_synchronous_spec,
)
from repro.core.processor import MCDProcessor
from repro.engine import make_trace
from repro.isa.opcodes import FLAG_BRANCH, FLAG_MEMORY, FLAG_STORE, FLAG_TAKEN, OpClass
from repro.timing.tables import ADAPTIVE_DCACHE_CONFIGS, ADAPTIVE_ICACHE_CONFIGS
from repro.workloads import get_workload
from repro.workloads.generator import CompiledTrace

from tests.trace_rows import append_row

#: Every physical array a shipped machine builds its caches on.
PHYSICAL_ARRAYS = {
    "l1i": ADAPTIVE_ICACHE_CONFIGS[-1].icache,
    "l1d": ADAPTIVE_DCACHE_CONFIGS[-1].l1,
    "l2": ADAPTIVE_DCACHE_CONFIGS[-1].l2,
    "synchronous_l1i": best_overall_synchronous_spec().icache.icache,
}


# ------------------------------------------------------- AccountingCache.warm


@pytest.mark.parametrize("name", sorted(PHYSICAL_ARRAYS))
@given(
    # (set, tag, byte offset) triples over three sets, so sets fill and evict.
    blocks=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 11), st.integers(0, 63)), max_size=120
    ),
)
@settings(max_examples=40, deadline=None)
def test_warm_leaves_the_sets_access_leaves_and_returns_its_misses(name, blocks):
    geometry = PHYSICAL_ARRAYS[name]
    block_bytes = geometry.block_bytes
    addresses = [
        (tag * geometry.num_sets + index) * block_bytes + offset % block_bytes
        for index, tag, offset in blocks
    ]
    for a_ways in range(1, geometry.associativity + 1):
        for b_enabled in (True, False):
            accessed = AccountingCache(geometry, a_ways=a_ways, b_enabled=b_enabled)
            outcomes = [accessed.access(address) for address in addresses]
            warmed = AccountingCache(geometry, a_ways=a_ways, b_enabled=b_enabled)
            misses = warmed.warm(iter(addresses))
            assert warmed._sets == accessed._sets
            assert misses == [
                address
                for address, outcome in zip(addresses, outcomes)
                if outcome is AccessOutcome.MISS
            ]
            assert warmed.interval_stats == CacheIntervalStats(ways=geometry.associativity)
            assert warmed.access_profile == {}


# --------------------------------------------------------- processor warm-up

MACHINES = {
    "synchronous": dict(spec=best_overall_synchronous_spec()),
    "fixed_mcd": dict(spec=adaptive_mcd_spec(AdaptiveConfigIndices(1, 1, 32, 32))),
    "fixed_mcd_b": dict(
        spec=adaptive_mcd_spec(AdaptiveConfigIndices(1, 1, 32, 32), use_b_partitions=True)
    ),
    "phase_adaptive": dict(spec=base_adaptive_spec(use_b_partitions=True), phase_adaptive=True),
}


def hand_written_trace() -> CompiledTrace:
    """Rows that a flag or address shortcut would get wrong: a memory row at
    address 0, a row flagged both branch and memory, loads that conflict in
    the direct-mapped L1-D set 0 (L1 misses that hit the L2), and taken and
    not-taken branches that share a fetch block with their neighbours.
    Registers 1 to 5 are the integer registers r1 to r5."""
    conflict = ADAPTIVE_DCACHE_CONFIGS[-1].l1.num_sets * 64
    pc = 0x40_0000
    trace = CompiledTrace()
    append_row(trace, pc, OpClass.LOAD, dest=1, address=0)
    append_row(trace, pc + 4, OpClass.STORE, sources=(1,), address=conflict)
    append_row(
        trace,
        pc + 8,
        OpClass.LOAD,
        dest=2,
        address=0x40,
        branch=True,
        taken=True,
        target=pc + 0x1000,
    )
    append_row(trace, pc + 0x1000, OpClass.LOAD, dest=3, address=0)
    append_row(trace, pc + 0x1004, OpClass.BRANCH, taken=False)
    append_row(trace, pc + 0x1008, OpClass.LOAD, dest=4, address=2 * conflict)
    append_row(trace, pc + 0x100C, OpClass.INT_ALU, dest=5, sources=(4,))
    append_row(trace, pc + 0x1010, OpClass.BRANCH, taken=True, target=pc)
    append_row(trace, pc, OpClass.LOAD, dest=1, address=conflict + 8)
    append_row(trace, pc + 4, OpClass.STORE, sources=(1,), address=0)
    return trace


class WarmedUp(Exception):
    """Raised right after warm-up, so the run stops there."""


def reference_warm_up(processor: MCDProcessor, count: int) -> None:
    """The row-by-row warm-up: every row in program order, the I-cache once
    per fetch block, the predictor and BTB per branch, the data hierarchy
    per memory row, through the measured run's entry points."""
    frontend = processor.frontend
    trace = frontend.trace
    start = frontend.cursor
    end = min(trace.ensure(start + count), start + count)
    block_bytes = frontend.icache.geometry.block_bytes
    last_block = None
    for index in range(start, end):
        pc = trace.pc[index]
        if pc // block_bytes != last_block:
            frontend.icache.access(pc)
            last_block = pc // block_bytes
        bits = trace.flags[index]
        if bits & FLAG_BRANCH:
            taken = bool(bits & FLAG_TAKEN)
            frontend.predictor.predict_and_update(pc, taken)
            if taken:
                frontend.btb.update(pc, trace.target[index])
        if bits & FLAG_MEMORY:
            processor.hierarchy.access_data(
                trace.address[index],
                is_store=bool(bits & FLAG_STORE),
                now_ps=0,
                period_ps=processor._ls_clock.period_ps,
            )
    frontend.cursor = end


def warmed(machine: str, trace, count: int, *, reference: bool = False) -> MCDProcessor:
    """A processor of *machine* stopped right after warming up on *trace*."""
    processor = MCDProcessor(**MACHINES[machine])
    warm_up = processor._warm_up

    def warm_up_then_stop(count: int) -> None:
        if reference:
            reference_warm_up(processor, count)
        else:
            warm_up(count)
        raise WarmedUp

    processor._warm_up = warm_up_then_stop
    with pytest.raises(WarmedUp):
        processor.run(trace, max_instructions=1, warmup_instructions=count)
    return processor


def warm_state(processor: MCDProcessor) -> dict:
    frontend = processor.frontend
    predictor = frontend.predictor
    return {
        "icache": frontend.icache._sets,
        "l1d": processor.hierarchy.l1d._sets,
        "l2": processor.hierarchy.l2._sets,
        "predictor": (
            predictor._gshare,
            predictor._pht,
            predictor._bht,
            predictor._meta,
            predictor._history,
        ),
        "btb": frontend.btb._table,
        "cursor": frontend.cursor,
    }


#: Trace builder, warm-up count and the cursor that count leaves.
TRACES = {
    # The whole hand-written trace: the count runs past its end.
    "hand_written": (hand_written_trace, 20, hand_written_trace().length),
    "em3d": (lambda: make_trace(get_workload("em3d")), 4_000, 4_000),
    "gcc": (lambda: make_trace(get_workload("gcc")), 4_000, 4_000),
}


@pytest.mark.parametrize("trace_name", sorted(TRACES))
@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_warm_up_leaves_the_row_by_row_state(machine, trace_name):
    build, count, cursor = TRACES[trace_name]
    expected = warm_state(warmed(machine, build(), count, reference=True))
    assert warm_state(warmed(machine, build(), count)) == expected
    assert expected["cursor"] == cursor


#: RunResult fields that describe the machine rather than count its work.
CONFIGURATION_FIELDS = {
    "workload",
    "machine",
    "style",
    "final_frequencies_ghz",
    "phase_adaptive",
    "cache_geometries",
    "structure_entries",
    "predictor_size_kb",
}


def is_zero(value) -> bool:
    if isinstance(value, dict):
        return all(is_zero(item) for item in value.values())
    if isinstance(value, list):
        return not value
    return value == 0


@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_warm_up_counts_nothing(machine):
    processor = warmed(machine, make_trace(get_workload("em3d")), 4_000)
    result = processor._build_result("em3d")
    counters = {
        field.name: getattr(result, field.name)
        for field in dataclasses.fields(result)
        if field.name not in CONFIGURATION_FIELDS
    }
    assert {name: value for name, value in counters.items() if not is_zero(value)} == {}
    for cache in (processor.frontend.icache, processor.hierarchy.l1d, processor.hierarchy.l2):
        assert cache.interval_stats == CacheIntervalStats(ways=cache.geometry.associativity)
        assert cache.access_profile == {}
