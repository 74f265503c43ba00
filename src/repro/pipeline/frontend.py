"""Front-end: instruction fetch, branch prediction, and the fetch queue.

The front end owns the (resizable) instruction cache, the jointly sized
hybrid branch predictor, a small BTB and the fetch queue.  It is trace
driven: instructions come from the workload generator in committed program
order, so there is no wrong-path fetch; a mispredicted branch instead stalls
fetch until the processor reports that the branch has resolved and the
configured misprediction penalty has elapsed (the standard trace-driven
modelling of branch mispredictions).

Fetch consumes the trace through its *compiled* flat-column form
(:class:`~repro.workloads.generator.CompiledTrace`): the fetch loop reads
parallel ``array`` columns by cursor index and populates pooled
:class:`~repro.pipeline.dyninst.DynInst` records, so the per-instruction hot
path performs no object construction and no attribute chasing through
``Instruction``.  A caller-supplied iterable of ``Instruction`` objects is
encoded into a compiled trace of its own, so there is one fetch
implementation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.branch.btb import BranchTargetBuffer
from repro.branch.hybrid import HybridPredictor, build_predictor
from repro.caches.accounting import AccessOutcome, AccountingCache
from repro.clocks.time import Picoseconds
from repro.timing.cacti import CacheGeometry
from repro.isa.instruction import Instruction
from repro.isa.opcodes import (
    FLAG_BRANCH,
    FLAG_FP,
    FLAG_MEMORY,
    FLAG_STORE,
    FLAG_TAKEN,
)
from repro.isa.registers import NO_REGISTER
from repro.pipeline.dyninst import DynInst
from repro.timing.tables import ICacheConfig
from repro.workloads.generator import CompiledTrace

_HIT_B = AccessOutcome.HIT_B
_MISS = AccessOutcome.MISS

#: Upper bound on the DynInst free list (enough to cover ROB + queues with
#: slack; beyond this, retired records are simply dropped to the GC).
_POOL_CAPACITY = 512


@dataclass(slots=True)
class FrontEndStats:
    """Aggregate front-end counters."""

    fetched: int = 0
    icache_accesses: int = 0
    icache_b_hits: int = 0
    icache_misses: int = 0
    branches: int = 0
    mispredictions: int = 0
    fetch_stall_cycles: int = 0
    branch_stall_cycles: int = 0


class FetchQueue:
    """Fixed-capacity queue between fetch and dispatch.

    Fetch appends to ``entries`` while fewer than ``capacity`` are buffered;
    the processor's dispatch takes them from the head.
    """

    def __init__(self, capacity: int = 16) -> None:
        if capacity < 1:
            raise ValueError("fetch queue capacity must be positive")
        self.capacity = capacity
        self.entries: deque[DynInst] = deque()


class FrontEnd:
    """Fetch engine for one run.

    Parameters
    ----------
    trace:
        The instruction stream in program order: a
        :class:`~repro.workloads.generator.CompiledTrace`, an object
        exposing a ``compiled`` attribute (e.g.
        :class:`~repro.workloads.trace_cache.ReplayableTrace`), a
        :class:`~repro.workloads.generator.SyntheticTraceGenerator`, or any
        iterable of :class:`~repro.isa.instruction.Instruction` (encoded on
        the fly).
    icache_config:
        The active I-cache / branch-predictor configuration.
    fetch_width:
        Maximum instructions fetched per front-end cycle.
    fetch_queue_capacity:
        Depth of the fetch queue (Table 5: 16 entries).
    decode_cycles:
        Front-end cycles between fetch and dispatch eligibility.
    use_b_partition:
        Whether the I-cache B partition is accessible.
    icache_miss_handler:
        Callback ``(block_address, now_ps) -> ready_ps`` used to service
        I-cache misses from the unified L2 across the domain boundary.
    """

    def __init__(
        self,
        trace: CompiledTrace | Iterable[Instruction],
        *,
        icache_config: ICacheConfig,
        physical_geometry: CacheGeometry | None = None,
        fetch_width: int = 8,
        fetch_queue_capacity: int = 16,
        decode_cycles: int = 2,
        use_b_partition: bool = True,
        icache_miss_handler: Callable[[int, Picoseconds], Picoseconds] | None = None,
    ) -> None:
        if isinstance(trace, CompiledTrace):
            compiled = trace
        else:
            candidate = getattr(trace, "compiled", None)
            if isinstance(candidate, CompiledTrace):
                compiled = candidate
            else:
                compiled = CompiledTrace(trace)
        self._trace = compiled
        self._cursor = 0
        self._pool: list[DynInst] = []
        self.fetch_width = fetch_width
        self.decode_cycles = decode_cycles
        self.fetch_queue = FetchQueue(fetch_queue_capacity)
        self.stats = FrontEndStats()

        # The physical array is the maximum (resizable) organisation; the
        # active configuration selects how many ways form the A partition.
        # For non-resizable (synchronous) machines the physical array is the
        # configuration itself.
        self.icache_config = icache_config
        self.icache = AccountingCache(
            physical_geometry if physical_geometry is not None else icache_config.icache,
            a_ways=icache_config.ways,
            b_enabled=use_b_partition and icache_config.l1_latency[1] is not None,
            name="L1I",
        )
        self.predictor: HybridPredictor = build_predictor(icache_config.predictor)
        self.btb = BranchTargetBuffer()
        self._icache_miss_handler = icache_miss_handler

        #: Time before which fetch is stalled (redirect or I-cache refill).
        self.stall_until: Picoseconds = 0
        #: The unresolved mispredicted branch fetch is stalled on, if any.
        self.waiting_branch: DynInst | None = None
        self._last_block: int | None = None

    # ------------------------------------------------------------------ API

    @property
    def trace(self) -> CompiledTrace:
        """The compiled trace fetch reads from (for bulk warm-up)."""
        return self._trace

    @property
    def cursor(self) -> int:
        """Index of the next instruction to fetch."""
        return self._cursor

    @property
    def trace_exhausted(self) -> bool:
        """True once the trace has been fully consumed."""
        return self._trace.exhausted and self._cursor >= self._trace.length

    def apply_icache_config(self, config: ICacheConfig, *, use_b_partition: bool) -> None:
        """Repartition the I-cache for *config* (contents are preserved)."""
        self.icache_config = config
        self.icache.set_a_ways(config.ways)
        self.icache.set_b_enabled(use_b_partition and config.l1_latency[1] is not None)

    def resume_after_branch(self, branch: DynInst, redirect_time: Picoseconds) -> None:
        """Called by the processor when a mispredicted branch resolves."""
        if self.waiting_branch is branch:
            self.waiting_branch = None
            self.stall_until = max(self.stall_until, redirect_time)
            self._last_block = None

    def advance_cursor(self, count: int) -> None:
        """Skip *count* instructions (bulk warm-up reads columns directly)."""
        self._cursor += count

    def recycle(self, insts: Iterable[DynInst]) -> None:
        """Return retired DynInst records to the fetch pool.

        Only safe once no in-flight instruction can still read them (the
        processor calls this at quiescent points: ROB and fetch queue empty).
        """
        pool = self._pool
        for inst in insts:
            if len(pool) >= _POOL_CAPACITY:
                break
            inst.producers = ()
            inst.queue_arrival_time = None
            inst.lsq_arrival_time = None
            inst.completion_time = None
            inst.exec_domain = "integer"
            inst.mispredicted = False
            inst.memory_issued = False
            pool.append(inst)

    # ------------------------------------------------------------ fetch step

    def fetch_cycle(self, now: Picoseconds, period_ps: Picoseconds) -> int:
        """Fetch up to ``fetch_width`` instructions at front-end edge *now*.

        The fetched instructions are appended to the fetch queue; returns
        how many there were.  The caller counts stalled cycles instead of
        calling: fetch is stalled while ``waiting_branch`` is set and before
        ``stall_until``.
        """
        stats = self.stats
        fetch_queue = self.fetch_queue
        fq_entries = fetch_queue.entries
        fq_append = fq_entries.append
        icache = self.icache
        trace = self._trace
        start = cursor = self._cursor
        limit = cursor + self.fetch_width
        # Fetch stops at the fetch width, the end of the compiled trace and
        # the fetch queue's free space, whichever comes first.
        space = fetch_queue.capacity - len(fq_entries)
        end = min(limit, trace.ensure(limit), cursor + space)
        pc_col = trace.pc
        op_col = trace.op
        flags_col = trace.flags
        dest_col = trace.dest
        src0_col = trace.src0
        src1_col = trace.src1
        addr_col = trace.address
        target_col = trace.target
        seq_col = trace.seq
        pool = self._pool
        predictor = self.predictor
        btb = self.btb
        last_block = self._last_block
        block_bytes = icache.geometry.block_bytes
        decode_delay = self.decode_cycles * period_ps
        dispatch_ready = now + decode_delay
        icache_accesses = icache_b_hits = branches = 0
        while cursor < end:
            pc = pc_col[cursor]
            block = pc // block_bytes
            if block != last_block:
                outcome = icache.access(pc)
                icache_accesses += 1
                last_block = block
                if outcome is _HIT_B:
                    # The fetch pipeline keeps running; instructions from this
                    # block simply become available to dispatch B-latency
                    # cycles later.
                    icache_b_hits += 1
                    extra_delay = (self.icache_config.l1_latency[1] or 0) * period_ps
                    dispatch_ready = now + decode_delay + extra_delay
                elif outcome is _MISS:
                    stats.icache_misses += 1
                    if self._icache_miss_handler is not None:
                        ready = self._icache_miss_handler(pc, now)
                    else:
                        ready = now + 20 * period_ps
                    self.stall_until = max(ready, now + period_ps)
                    # The cursor does not advance: the same instruction is
                    # refetched after the refill (hitting the now-warm block,
                    # as ``last_block`` already points at it).
                    break

            bits = flags_col[cursor]
            dyninst = pool.pop() if pool else DynInst()
            dyninst.seq = seq_col[cursor]
            dyninst.op_id = op_col[cursor]
            dyninst.is_branch = is_branch = bits & FLAG_BRANCH != 0
            dyninst.is_memory_op = bits & FLAG_MEMORY != 0
            dyninst.is_store = bits & FLAG_STORE != 0
            dyninst.is_fp = bits & FLAG_FP != 0
            dyninst.pc = pc
            dyninst.dest = dest_col[cursor]
            src0 = src0_col[cursor]
            src1 = src1_col[cursor]
            dyninst.src0 = src0
            dyninst.src1 = src1
            if src1 != NO_REGISTER:
                dyninst.source_count = 2
            elif src0 != NO_REGISTER:
                dyninst.source_count = 1
            else:
                dyninst.source_count = 0
            dyninst.address = addr_col[cursor]
            dyninst.dispatch_ready_time = dispatch_ready
            fq_append(dyninst)
            cursor += 1

            if is_branch:
                branches += 1
                taken = bits & FLAG_TAKEN != 0
                correct = predictor.predict_and_update(pc, taken)
                predicted_target = btb.lookup(pc)
                if taken:
                    btb.update(pc, target_col[cursor - 1])  # the branch's row
                if not correct:
                    dyninst.mispredicted = True
                    stats.mispredictions += 1
                    self.waiting_branch = dyninst
                    break
                if taken:
                    if predicted_target is None:
                        # Correctly predicted direction but unknown target:
                        # one fetch bubble while the target is computed.
                        self.stall_until = now + period_ps
                    # Cannot fetch past a taken branch in the same cycle.
                    last_block = None
                    break
        self._cursor = cursor
        self._last_block = last_block
        stats.fetched += cursor - start
        stats.icache_accesses += icache_accesses
        stats.icache_b_hits += icache_b_hits
        stats.branches += branches
        return cursor - start
