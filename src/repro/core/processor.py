"""The adaptive MCD processor simulator.

:class:`MCDProcessor` ties the substrates together into the four-domain GALS
machine of the paper.  The same class also simulates the fully synchronous
baseline: a synchronous :class:`~repro.core.configuration.MachineSpec` gives
every domain the same clock, disables inter-domain synchronisation costs and
uses the shallower misprediction penalty, so the two machines share every
line of pipeline modelling and differ only where the paper says they differ.

The simulation is event driven over clock edges: the main loop repeatedly
advances whichever domain has the earliest pending clock edge and performs
that domain's work for one cycle.  Edges on which no domain can do any work
are not walked: the work-horizon skip consumes them in bulk and applies
their per-cycle counter updates arithmetically.  Times are integer
picoseconds throughout.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from functools import partial
from heapq import heappop, heappush
from itertools import compress, islice
from math import inf
from operator import attrgetter
from typing import Callable, Sequence

from repro.caches.accounting import AccessOutcome
from repro.caches.hierarchy import CacheHierarchy
from repro.caches.memory import MainMemory
from repro.clocks.clock import DomainClock
from repro.clocks.time import Picoseconds
from repro.core.configuration import MachineSpec
from repro.core.controllers.cache_controller import (
    CacheLevel,
    PhaseAdaptiveCacheController,
)
from repro.core.controllers.damping import ControllerDecision
from repro.core.controllers.params import AdaptiveControlParams
from repro.core.controllers.queue_controller import ILPTracker, PhaseAdaptiveQueueController
from repro.core.domains import Domain
from repro.core.pll import PLLModel
from repro.core.synchronization import DEFAULT_WINDOW_FRACTION, SynchronizationModel
from repro.isa.opcodes import (
    EXECUTION_LATENCY,
    FLAG_BRANCH,
    FLAG_FP,
    FLAG_MEMORY,
    FLAG_STORE,
    FLAG_TAKEN,
    OPCLASSES,
    OPCODE_ID,
    OpClass,
)
from repro.isa.registers import FP_BASE_INDEX, NO_REGISTER
from repro.obs.events import (
    CONTROLLER_INTERVAL,
    FREQUENCY_CHANGE,
    HORIZON_SKIP,
    RECONFIGURATION,
    SYNC_PENALTY,
)
from repro.obs.recorder import TraceRecorder
from repro.pipeline.dyninst import DynInst
from repro.pipeline.frontend import FrontEnd
from repro.pipeline.issue_queue import IssueQueue
from repro.pipeline.lsq import LoadStoreQueue
from repro.pipeline.resources import FunctionalUnitPool, PhysicalRegisterFile
from repro.pipeline.rob import ReorderBuffer
from repro.analysis.metrics import ConfigurationChange, RunResult
from repro.timing.cacti import CacheGeometry
from repro.timing.tables import (
    ADAPTIVE_DCACHE_CONFIGS,
    ADAPTIVE_ICACHE_CONFIGS,
    ISSUE_QUEUE_FREQUENCY_GHZ,
    ISSUE_QUEUE_SIZES,
    BranchPredictorGeometry,
)
from repro.workloads.generator import CompiledTrace

# Issue works on dense opcode ids (``DynInst.op_id``): the latency table is a
# tuple indexed by id, and the functional-unit pools test complex ops as ints.
_LATENCY_BY_OP_ID = tuple(EXECUTION_LATENCY[op] for op in OPCLASSES)
_INT_COMPLEX_OPS = frozenset(OPCODE_ID[op] for op in (OpClass.INT_MULT, OpClass.INT_DIV))
_FP_COMPLEX_OPS = frozenset(
    OPCODE_ID[op] for op in (OpClass.FP_MULT, OpClass.FP_DIV, OpClass.FP_SQRT)
)

# Hoisted hot-loop constants: domain name strings (``DynInst.exec_domain``
# values and wake-up window keys).
_FRONT_END_DOMAIN = Domain.FRONT_END.value
_INTEGER_DOMAIN = Domain.INTEGER.value
_FLOATING_POINT_DOMAIN = Domain.FLOATING_POINT.value
_LOAD_STORE_DOMAIN = Domain.LOAD_STORE.value
_HIT_B = AccessOutcome.HIT_B
_MISS = AccessOutcome.MISS
_SEQ_KEY = attrgetter("seq")

#: The work horizon when no domain can bound its next work from the machine
#: state (only a deadlocked machine gets here).
_NO_BOUND = inf

#: Main-loop iterations without a commit after which the simulator assumes a
#: modelling bug rather than spinning forever.
_DEADLOCK_LIMIT = 2_000_000

#: ``bytes.translate`` tables that keep one bit of each row's flags byte,
#: selecting the branch rows and the memory rows of a warm-up slice.
_BRANCH_BIT = bytes(bits & FLAG_BRANCH for bits in range(256))
_MEMORY_BIT = bytes(bits & FLAG_MEMORY for bits in range(256))


def _wake_consumers(
    consumers: list[DynInst],
    schedule_int: Callable[[DynInst], None],
    schedule_fp: Callable[[DynInst], None],
) -> None:
    """Count down the consumers of a producer whose completion time was just
    set, scheduling each whose last in-flight producer it was; then empty
    the list, so that producer and consumer stop referring to each other."""
    for consumer in consumers:
        consumer.waits -= 1
        if not consumer.waits:
            (schedule_fp if consumer.is_fp else schedule_int)(consumer)
    consumers.clear()


class MCDProcessor:
    """Simulator for one machine specification.

    Parameters
    ----------
    spec:
        The machine to simulate (adaptive MCD or fully synchronous).
    control:
        Parameters of the phase-adaptive controllers; only used when
        ``phase_adaptive`` is True.
    phase_adaptive:
        Enable the run-time control algorithms (Accounting-Cache controller
        and ILP-tracking queue controllers).  Requires an adaptive spec.
    seed:
        Seed for the PLL lock-time sampler and clock jitter.
    jitter_fraction:
        Optional peak-to-peak clock jitter as a fraction of each period.
        Requires an adaptive spec: a synchronous machine has one global
        clock, not four independent ones.
    sync_window_fraction:
        Fraction of the faster clock's period forming the unsafe capture
        window at domain crossings (0.3 in the paper; the knob behind the
        paper's synchronisation-window sensitivity analysis).
    horizon_scheduling:
        Enable the work-horizon skip: at the top of every main-loop
        iteration the simulator computes, from the machine state, the
        earliest time at which any domain can do work, and consumes every
        domain's clock edges before it in bulk, applying the counter updates
        those idle edges would have made (stall cycles, commit-attempt
        synchronisation statistics, issue-queue occupancy samples)
        arithmetically — see :meth:`_horizon_skipper`.  Bit-identical by
        construction, jitter-correct (bulk skips land on true
        jittered edges) and on by default; ``False`` walks every edge one at
        a time, the reference path the identity tests compare against.
    recorder:
        Optional :class:`~repro.obs.recorder.TraceRecorder` receiving the
        telemetry event stream (controller intervals, reconfigurations,
        frequency changes, sync penalties, work-horizon skips).
        Strictly observation-only: results are bit-identical with and
        without a recorder, and the ``None`` default (the null object) adds
        no work to the hot paths — every emission guard is a precomputed
        boolean that is False.
    """

    def __init__(
        self,
        spec: MachineSpec,
        *,
        control: AdaptiveControlParams | None = None,
        phase_adaptive: bool = False,
        seed: int = 0,
        jitter_fraction: float = 0.0,
        sync_window_fraction: float = DEFAULT_WINDOW_FRACTION,
        horizon_scheduling: bool = True,
        recorder: TraceRecorder | None = None,
    ) -> None:
        if phase_adaptive and not spec.is_adaptive:
            raise ValueError("phase-adaptive control requires an adaptive MCD spec")
        if jitter_fraction and not spec.is_adaptive:
            raise ValueError(
                "jitter_fraction requires an adaptive MCD spec: a synchronous "
                "machine runs one global clock"
            )
        self.spec = spec
        self.params = spec.parameters
        self.control = control if control is not None else AdaptiveControlParams()
        self.phase_adaptive = phase_adaptive

        self.clocks: dict[Domain, DomainClock] = {
            domain: DomainClock(
                domain.value,
                spec.frequency(domain),
                jitter_fraction=jitter_fraction,
                seed=seed,
            )
            for domain in Domain
        }
        self._clock_by_name = {
            domain.value: clock for domain, clock in self.clocks.items()
        }
        # Direct references for the hot per-cycle paths: the clock objects
        # are created once and never replaced (frequency changes mutate them
        # in place), so these stay valid for the processor's lifetime.
        self._fe_clock = self.clocks[Domain.FRONT_END]
        self._int_clock = self.clocks[Domain.INTEGER]
        self._fp_clock = self.clocks[Domain.FLOATING_POINT]
        self._ls_clock = self.clocks[Domain.LOAD_STORE]
        self.sync = SynchronizationModel(
            enabled=spec.inter_domain_sync, window_fraction=sync_window_fraction
        )
        # Wake-up synchronisation windows by (consumer, producer) domain,
        # rebuilt in place whenever any domain's period changes (see
        # _build_wake_windows), so each consumer's row is bound once.
        self._wake_window_table: dict[str, dict[str, int]] = {}
        self._build_wake_windows()
        self._fe_windows = self._wake_window_table[_FRONT_END_DOMAIN]
        self.pll = PLLModel(
            mean_us=self.control.pll_mean_us,
            min_us=self.control.pll_min_us,
            max_us=self.control.pll_max_us,
            interval_scaled=self.control.pll_interval_scaled,
            seed=seed,
        )

        params = self.params
        # Pipeline widths, hoisted out of the per-cycle paths (machine
        # parameters are fixed for the processor's lifetime; only cache ways,
        # queue capacities and frequencies adapt at run time).
        self._issue_width = params.issue_width
        self._decode_width = params.decode_width
        self._retire_width = params.retire_width
        self._cache_ports = params.cache_ports
        self.memory = MainMemory(
            first_chunk_ns=params.memory_first_chunk_ns,
            subsequent_chunk_ns=params.memory_subsequent_chunk_ns,
        )
        self.hierarchy = CacheHierarchy(
            spec.dcache, b_enabled=spec.use_b_partitions, memory=self.memory
        )
        self.rob = ReorderBuffer(params.reorder_buffer_entries)
        self.lsq = LoadStoreQueue(params.load_store_queue_entries)
        self.int_regs = PhysicalRegisterFile(params.physical_int_registers)
        self.fp_regs = PhysicalRegisterFile(params.physical_fp_registers)
        self.int_queue = IssueQueue(
            spec.int_queue_size,
            name="int-queue",
            windows=self._wake_window_table[_INTEGER_DOMAIN],
        )
        self.fp_queue = IssueQueue(
            spec.fp_queue_size,
            name="fp-queue",
            windows=self._wake_window_table[_FLOATING_POINT_DOMAIN],
        )
        self.int_units = FunctionalUnitPool(
            alus=params.int_alus,
            complex_units=params.int_complex_units,
            complex_ops=_INT_COMPLEX_OPS,
        )
        self.fp_units = FunctionalUnitPool(
            alus=params.fp_alus,
            complex_units=params.fp_complex_units,
            complex_ops=_FP_COMPLEX_OPS,
        )

        self.frontend: FrontEnd | None = None
        # Rename map keyed by dense register index (0..63).
        self._last_writer: dict[int, DynInst] = {}
        # Committed records, oldest first, which fetch reuses once more than
        # ``rob.capacity`` of them are held.  A consumer names a producer
        # only if both were in the ROB when it dispatched, and reads it only
        # until it issues; so by the time ``rob.capacity`` younger records
        # have committed, every consumer of the oldest has issued.
        self._retired: deque[DynInst] = deque()
        self._pending_events: list[tuple[Picoseconds, Callable[[], None]]] = []
        self._changes_in_progress: set[Domain] = set()
        self._last_commit_time: Picoseconds = 0
        self._configuration_changes: list[ConfigurationChange] = []

        # Phase-adaptive controllers (created lazily once the front end and
        # therefore the I-cache exist).
        self._dcache_controller: PhaseAdaptiveCacheController | None = None
        self._icache_controller: PhaseAdaptiveCacheController | None = None
        self._int_queue_controller: PhaseAdaptiveQueueController | None = None
        self._fp_queue_controller: PhaseAdaptiveQueueController | None = None
        # The queue controllers' shared dependence-height tracker, fed by
        # _dispatch; None when the queues do not adapt.
        self._ilp_tracker: ILPTracker | None = None
        # Commits left in the cache controllers' current adaptation interval,
        # counted down by _commit; 0 when the caches do not adapt.
        self._interval_countdown = 0
        self._interval_start_time: Picoseconds = 0
        self._last_interval_duration: Picoseconds = 0

        # Work-horizon skip (see the constructor docstring).  The counter is
        # observational only — excluded from result digests — and describes
        # the measured window, since warm-up walks no clock edge.
        self._horizon_enabled = horizon_scheduling
        #: Idle clock edges of all four domains consumed by the skip.
        self.horizon_skipped_edges = 0

        # Telemetry (observation-only).  The per-event-type booleans are
        # precomputed so every hot-path emission guard is one local truth
        # test; with no recorder they are all False and the disabled path
        # performs no event work at all.
        self.recorder = recorder
        if recorder is not None:
            self._trace_interval = recorder.wants(CONTROLLER_INTERVAL)
            self._trace_reconfig = recorder.wants(RECONFIGURATION)
            self._trace_freq = recorder.wants(FREQUENCY_CHANGE)
            self._trace_sync = recorder.wants(SYNC_PENALTY)
            self._trace_horizon = recorder.wants(HORIZON_SKIP)
            if self._trace_sync:
                # The one penalty hook: SynchronizationModel.transfer calls
                # it, and so do the inlined penalty sites in _commit and the
                # horizon skip (which bypass transfer) under the same
                # boolean.  It closes over the recorder and the ROB, never
                # ``self``, so the model holds no reference back to the
                # processor and reference counting frees a traced run.
                rob = self.rob

                def emit_sync_penalty(time_ps: Picoseconds, producer: str, consumer: str) -> None:
                    recorder.emit(
                        SYNC_PENALTY,
                        time_ps,
                        rob.total_committed,
                        producer=producer,
                        consumer=consumer,
                    )

                self.sync.on_penalty = emit_sync_penalty
        else:
            self._trace_interval = False
            self._trace_reconfig = False
            self._trace_freq = False
            self._trace_sync = False
            self._trace_horizon = False

    # ------------------------------------------------------------------ run

    def run(
        self,
        trace: CompiledTrace,
        *,
        max_instructions: int,
        warmup_instructions: int = 0,
        workload_name: str = "",
    ) -> RunResult:
        """Simulate *trace* until ``max_instructions`` commit, or until a
        trace that ends has been fetched and drained.

        ``warmup_instructions`` instructions are first streamed through the
        caches and branch predictor with no timing effects, so that the
        measured window starts from a warm memory hierarchy (the stand-in for
        the paper's 100 M-instruction fast-forward windows).

        The run reads *trace*'s columns from row 0 and writes none of them
        itself, so the shared trace ``make_trace`` returns serves every run
        in the process.
        """
        if max_instructions <= 0:
            raise ValueError("max_instructions must be positive")
        physical_icache = (
            ADAPTIVE_ICACHE_CONFIGS[-1].icache if self.spec.is_adaptive else None
        )
        self.frontend = FrontEnd(
            trace,
            icache_config=self.spec.icache,
            physical_geometry=physical_icache,
            fetch_width=self.params.fetch_width,
            fetch_queue_capacity=self.params.fetch_queue_entries,
            decode_cycles=self.params.decode_cycles,
            use_b_partition=self.spec.use_b_partitions,
        )
        if warmup_instructions > 0:
            self._warm_up(warmup_instructions)
        if self.phase_adaptive:
            self._build_controllers()

        self._main_loop(max_instructions)
        return self._build_result(workload_name)

    # ------------------------------------------------------------ internals

    def _warm_up(self, count: int) -> None:
        # Functional warming: one pass per structure over the warm-up slice
        # of the compiled columns.  The I-cache, the predictor/BTB pair and
        # the data caches share no state, so separate passes leave what one
        # interleaved row loop would.  Only MRU stacks, predictor tables and
        # BTB sets change, never a latency, counter, histogram or the main
        # memory, so the measured window starts from zeroed counters.
        frontend = self.frontend
        assert frontend is not None
        trace = frontend.trace
        start = frontend.cursor
        end = min(trace.ensure(start + count), start + count)
        # The passes iterate over the columns instead of slicing them: copies
        # of the pc, target and address slices would add 12 bytes a row to
        # the peak memory.
        flags = trace.flags[start:end].tobytes()
        # The I-cache is probed once per run of rows in one fetch block.
        icache = frontend.icache
        block_bytes = icache.geometry.block_bytes
        fetch_blocks = []
        last_block = None
        for pc in islice(trace.pc, start, end):
            block = pc // block_bytes
            if block != last_block:
                fetch_blocks.append(pc)
                last_block = block
        icache.warm(fetch_blocks)
        predict = frontend.predictor.predict_and_update
        btb_update = frontend.btb.update
        branches = flags.translate(_BRANCH_BIT)
        for pc, bits, target in zip(
            compress(islice(trace.pc, start, end), branches),
            compress(flags, branches),
            compress(islice(trace.target, start, end), branches),
        ):
            taken = bits & FLAG_TAKEN != 0
            predict(pc, taken)
            if taken:
                btb_update(pc, target)
        hierarchy = self.hierarchy
        hierarchy.l2.warm(
            hierarchy.l1d.warm(
                compress(islice(trace.address, start, end), flags.translate(_MEMORY_BIT))
            )
        )
        frontend.cursor = end

    def _build_controllers(self) -> None:
        frontend = self.frontend
        assert frontend is not None
        control = self.control
        if control.adapt_caches:
            dcache_levels = (
                CacheLevel(
                    cache=self.hierarchy.l1d,
                    latencies=tuple(c.l1_latency for c in ADAPTIVE_DCACHE_CONFIGS),
                    a_ways=tuple(c.ways for c in ADAPTIVE_DCACHE_CONFIGS),
                ),
                CacheLevel(
                    cache=self.hierarchy.l2,
                    latencies=tuple(c.l2_latency for c in ADAPTIVE_DCACHE_CONFIGS),
                    a_ways=tuple(c.ways for c in ADAPTIVE_DCACHE_CONFIGS),
                ),
            )
            self._dcache_controller = PhaseAdaptiveCacheController(
                name="dcache",
                levels=dcache_levels,
                frequencies_ghz=tuple(c.frequency_ghz for c in ADAPTIVE_DCACHE_CONFIGS),
                beyond_last_level_ps=control.memory_time_ps,
                initial_index=self._current_dcache_index(),
                hysteresis=control.cache_hysteresis,
                consecutive_decisions_required=control.cache_consecutive_decisions,
                b_hit_overlap_factor=control.cache_b_hit_overlap_factor,
            )
            icache_levels = (
                CacheLevel(
                    cache=frontend.icache,
                    latencies=tuple(c.l1_latency for c in ADAPTIVE_ICACHE_CONFIGS),
                    a_ways=tuple(c.ways for c in ADAPTIVE_ICACHE_CONFIGS),
                ),
            )
            self._icache_controller = PhaseAdaptiveCacheController(
                name="icache",
                levels=icache_levels,
                frequencies_ghz=tuple(c.frequency_ghz for c in ADAPTIVE_ICACHE_CONFIGS),
                beyond_last_level_ps=control.icache_miss_time_ps,
                initial_index=self._current_icache_index(),
                hysteresis=control.cache_hysteresis,
                consecutive_decisions_required=control.cache_consecutive_decisions,
                b_hit_overlap_factor=control.cache_b_hit_overlap_factor,
            )
            self._interval_countdown = control.interval_instructions
        if control.adapt_queues:
            self._ilp_tracker = ILPTracker()
            self._int_queue_controller = PhaseAdaptiveQueueController(
                name="int-queue",
                initial_index=ISSUE_QUEUE_SIZES.index(self.spec.int_queue_size),
                hysteresis=control.queue_hysteresis,
                consecutive_decisions_required=control.queue_consecutive_decisions,
            )
            self._fp_queue_controller = PhaseAdaptiveQueueController(
                name="fp-queue",
                initial_index=ISSUE_QUEUE_SIZES.index(self.spec.fp_queue_size),
                hysteresis=control.queue_hysteresis,
                consecutive_decisions_required=control.queue_consecutive_decisions,
            )

    def _current_dcache_index(self) -> int:
        return next(
            index
            for index, config in enumerate(ADAPTIVE_DCACHE_CONFIGS)
            if config.name == self.hierarchy.config.name
        )

    def _current_icache_index(self) -> int:
        assert self.frontend is not None
        return next(
            index
            for index, config in enumerate(ADAPTIVE_ICACHE_CONFIGS)
            if config.name == self.frontend.icache_config.name
        )

    # ---------------------------------------------------------- main loop

    def _main_loop(self, max_instructions: int) -> None:
        frontend = self.frontend
        assert frontend is not None
        rob = self.rob
        # Hot bindings: the loop body runs once per processed clock edge, so
        # every attribute lookup it avoids matters.  The edge selection is an
        # explicit four-way compare (ties resolve in Domain declaration
        # order, exactly as ``min(Domain, key=...)`` did).  The ROB,
        # fetch-queue and pending-event containers are mutated only in
        # place, so binding them once keeps the quiescence and event checks
        # to truth tests.
        rob_entries = rob.entries
        fq_entries = frontend.fetch_queue.entries
        pending_events = self._pending_events
        fe_clock = self._fe_clock
        int_clock = self._int_clock
        fp_clock = self._fp_clock
        ls_clock = self._ls_clock
        fe_cycle = self._front_end_cycle
        int_cycle = self._integer_cycle
        fp_cycle = self._floating_point_cycle
        ls_cycle = self._load_store_cycle
        skip_idle_edges = self._horizon_skipper() if self._horizon_enabled else None
        # Jitter never changes mid-run, so on jitter-free machines the
        # per-edge ``clock.advance()`` call reduces to its two attribute
        # updates, inlined below.
        jitter_free = not (
            fe_clock.jitter_fraction
            or int_clock.jitter_fraction
            or fp_clock.jitter_fraction
            or ls_clock.jitter_fraction
        )
        idle_iterations = 0
        last_committed = 0
        while rob.total_committed < max_instructions:
            if not rob_entries and not fq_entries and frontend.trace_exhausted:
                break
            if skip_idle_edges is not None:
                # Before an edge is selected, so the skip never consumes
                # edges past the run's final cycle.
                skip_idle_edges()

            edge = fe_clock.next_edge
            clock = fe_clock
            cycle = fe_cycle
            candidate = int_clock.next_edge
            if candidate < edge:
                edge = candidate
                clock = int_clock
                cycle = int_cycle
            candidate = fp_clock.next_edge
            if candidate < edge:
                edge = candidate
                clock = fp_clock
                cycle = fp_cycle
            candidate = ls_clock.next_edge
            if candidate < edge:
                edge = candidate
                clock = ls_clock
                cycle = ls_cycle

            if pending_events:
                self._process_pending_events(edge)
            cycle(edge)
            if jitter_free:
                clock.cycle_count += 1
                clock.next_edge = edge + clock.period_ps
            else:
                clock.advance()

            committed = rob.total_committed
            if committed == last_committed:
                idle_iterations += 1
                if idle_iterations > _DEADLOCK_LIMIT:
                    raise RuntimeError(
                        "simulation made no forward progress for "
                        f"{_DEADLOCK_LIMIT} main-loop iterations (committed="
                        f"{committed}); this indicates a "
                        "pipeline modelling bug"
                    )
            else:
                idle_iterations = 0
                last_committed = committed
        # A producer still without a completion time and its consumers refer
        # to each other (its ``consumers`` list, their ``producers`` tuples),
        # and the ``producers`` tuples that committed and reused records
        # keep from earlier instructions can close a loop too.  Emptying
        # both for every record the run holds leaves a finished processor
        # to reference counting.
        for inst in rob_entries:
            inst.consumers.clear()
        for records in (self._retired, rob_entries, fq_entries):
            for inst in records:
                inst.producers = ()

    def _horizon_skipper(self) -> Callable[[], None]:
        """Build this run's work-horizon skip: a call that consumes every
        clock edge before the work horizon, in bulk.

        The work horizon is the earliest time at which any domain can do
        more than per-cycle bookkeeping, read off the machine state:

        - front end: the ROB head's completion plus its front-end wake
          window (commit); the fetch-queue head's ``dispatch_ready_time``
          when no ROB, register, issue-queue or LSQ hazard blocks it
          (dispatch); fetch's ``stall_until``, or the next edge when fetch
          can run (fetch);
        - integer and floating point: the next edge while the issue queue
          holds a woken entry, otherwise its wake-up heap's top key (an
          entry is keyed no earlier than its arrival in the queue);
        - load/store: the next edge while the LSQ holds an arrived entry
          whose access is not performed, otherwise its heap's earliest
          arrival;
        - the earliest pending reconfiguration event, which fires at the
          first edge of any domain at or after its time.

        Each domain's earliest candidate is aligned to its clock; aligning
        is monotone, so the front end aligns only the least of its three
        times.  An unknown — a producer that has not completed, an
        unresolved mispredicted branch, a structural hazard — gives no
        bound, because the domain that will resolve it has a bound of its
        own.  Nothing changes state before the
        horizon, so every edge strictly before it is idle; they are consumed
        with ``skip_edges_before`` and the only side effects they would have
        had are applied in bulk, exactly as the per-edge paths record them:

        - a branch-stall cycle per front-end edge while fetch waits on a
          mispredicted branch, otherwise a fetch-stall cycle per edge when
          ``stall_until`` lies beyond the front end's next edge;
        - one commit-attempt synchronisation transfer per front-end edge
          when the ROB head is a cross-domain result with a known completion
          time, plus one penalty per edge when its capture edge
          ``edge_at_or_after(completion)``, taken before the skip, falls
          inside its unsafe window (see :meth:`_commit`);
        - each issue queue's per-cycle occupancy sample.

        Edges at the horizon itself are left to the main loop, which
        processes them in the usual domain order.  The skip closes over the
        run's clocks, queues, LSQ lists and front end, which are only ever
        mutated in place, so each call reloads none of them.  It is not
        stored on the processor, which would make the two refer to each
        other.
        """
        frontend = self.frontend
        assert frontend is not None
        fe_clock = self._fe_clock
        int_clock = self._int_clock
        fp_clock = self._fp_clock
        ls_clock = self._ls_clock
        fe_edge_at_or_after = fe_clock.edge_at_or_after
        pending_events = self._pending_events
        fetch_queue = frontend.fetch_queue
        fq_entries = fetch_queue.entries
        fq_capacity = fetch_queue.capacity
        rob_entries = self.rob.entries
        int_queue = self.int_queue
        int_heap = int_queue.heap
        int_ready = int_queue.ready
        fp_queue = self.fp_queue
        fp_heap = fp_queue.heap
        fp_ready = fp_queue.ready
        lsq_heap = self.lsq.heap
        lsq_ready = self.lsq.ready
        fe_windows = self._fe_windows
        sync = self.sync
        sync_enabled = sync.enabled
        dispatch_blocked = self._dispatch_blocked
        trace_horizon = self._trace_horizon
        no_bound = _NO_BOUND
        processor = self

        def skip_idle_edges() -> None:
            fe_next = fe_clock.next_edge
            int_next = int_clock.next_edge
            fp_next = fp_clock.next_edge
            ls_next = ls_clock.next_edge
            floor = fe_next
            if int_next < floor:
                floor = int_next
            if fp_next < floor:
                floor = fp_next
            if ls_next < floor:
                floor = ls_next

            # A domain's candidates never precede its own next edge, so each
            # domain is consulted only while that edge is below the horizon
            # found so far; once the horizon reaches the earliest edge,
            # nothing further is computed.
            horizon = no_bound
            if pending_events:
                horizon = min(event[0] for event in pending_events)
            if fe_next < horizon:
                # The earliest of fetch's, commit's and dispatch's times,
                # unaligned; a time already due bounds at the next edge.
                due = horizon
                if frontend.waiting_branch is None:
                    stall_until = frontend.stall_until
                    if stall_until <= fe_next:
                        if len(fq_entries) < fq_capacity and not frontend.trace_exhausted:
                            due = fe_next
                    elif stall_until < due:
                        due = stall_until
                if due > fe_next and rob_entries:
                    head = rob_entries[0]
                    completion = head.completion_time
                    if completion is not None:
                        # Windows are all 0 on a machine without
                        # synchronisation.
                        completion += fe_windows[head.exec_domain]
                        if completion < due:
                            due = completion
                if due > fe_next and fq_entries:
                    inst = fq_entries[0]
                    ready = inst.dispatch_ready_time
                    if ready < due and not dispatch_blocked(inst):
                        due = ready
                if due <= fe_next:
                    horizon = fe_next
                elif due < horizon:
                    edge = fe_edge_at_or_after(due)
                    if edge < horizon:
                        horizon = edge
            if int_next < horizon:
                if int_ready:
                    horizon = int_next
                elif int_heap:
                    earliest = int_heap[0][0]
                    if earliest <= int_next:
                        horizon = int_next
                    elif earliest < horizon:
                        edge = int_clock.edge_at_or_after(earliest)
                        if edge < horizon:
                            horizon = edge
            if fp_next < horizon:
                if fp_ready:
                    horizon = fp_next
                elif fp_heap:
                    earliest = fp_heap[0][0]
                    if earliest <= fp_next:
                        horizon = fp_next
                    elif earliest < horizon:
                        edge = fp_clock.edge_at_or_after(earliest)
                        if edge < horizon:
                            horizon = edge
            if ls_next < horizon:
                if lsq_ready:
                    horizon = ls_next
                elif lsq_heap:
                    earliest = lsq_heap[0][0]
                    if earliest <= ls_next:
                        horizon = ls_next
                    elif earliest < horizon:
                        edge = ls_clock.edge_at_or_after(earliest)
                        if edge < horizon:
                            horizon = edge
            if not floor < horizon < no_bound:
                return

            skipped = 0
            if fe_next < horizon:
                head = rob_entries[0] if sync_enabled and rob_entries else None
                if head is not None and head.completion_time is not None:
                    # Every skipped edge makes the same commit attempt: the
                    # capture edge of the head's completion does not move.
                    completion = head.completion_time
                    window = fe_windows[head.exec_domain]
                    penalised = fe_edge_at_or_after(completion) - completion < window
                else:
                    head = None
                count = fe_clock.skip_edges_before(horizon)
                stats = frontend.stats
                if frontend.waiting_branch is not None:
                    stats.branch_stall_cycles += count
                elif frontend.stall_until > fe_next:
                    stats.fetch_stall_cycles += count
                if head is not None:
                    sync_stats = sync.stats
                    sync_stats.transfers += count
                    if penalised:
                        sync_stats.penalties += count
                        if processor._trace_sync:
                            for _ in range(count):
                                sync.on_penalty(completion, head.exec_domain, _FRONT_END_DOMAIN)
                skipped = count
            if int_next < horizon:
                count = int_clock.skip_edges_before(horizon)
                int_queue.occupancy_samples += count
                int_queue.occupancy_accumulator += count * int_queue.occupancy
                skipped += count
            if fp_next < horizon:
                count = fp_clock.skip_edges_before(horizon)
                fp_queue.occupancy_samples += count
                fp_queue.occupancy_accumulator += count * fp_queue.occupancy
                skipped += count
            if ls_next < horizon:
                skipped += ls_clock.skip_edges_before(horizon)
            processor.horizon_skipped_edges += skipped
            if trace_horizon:
                assert processor.recorder is not None
                processor.recorder.emit(
                    HORIZON_SKIP, horizon, processor.rob.total_committed, edges=skipped
                )

        return skip_idle_edges

    def _dispatch_blocked(self, inst: DynInst) -> bool:
        """True when a structural hazard stops *inst* from dispatching.

        A full ROB, destination register file, issue queue (arrivals still
        crossing into it included) or, for a memory operation, LSQ.  This is
        the horizon skip's test for the fetch-queue head; :meth:`_dispatch`
        applies the same rule from free-slot counts it reads once per call.
        """
        rob = self.rob
        if len(rob.entries) >= rob.capacity:
            return True
        dest = inst.dest
        if dest >= 0:
            regfile = self.fp_regs if dest >= FP_BASE_INDEX else self.int_regs
            if regfile.total <= regfile.allocated:
                return True
        queue = self.fp_queue if inst.is_fp else self.int_queue
        if queue.occupancy >= queue.capacity:
            return True
        lsq = self.lsq
        return inst.is_memory_op and len(lsq.entries) >= lsq.capacity

    def _process_pending_events(self, now: Picoseconds) -> None:
        pending = self._pending_events
        due = [event for event in pending if event[0] <= now]
        if not due:
            return
        pending[:] = [event for event in pending if event[0] > now]
        for _, action in sorted(due, key=lambda event: event[0]):
            action()
        # Domain periods change only inside pending-event actions (the
        # reconfiguration ``finish`` closures), so the wake-up windows are
        # rebuilt here, and every scheduled entry is re-keyed under them.
        self._build_wake_windows()
        self.int_queue.rekey()
        self.fp_queue.rekey()

    # ------------------------------------------------------------ front end

    def _front_end_cycle(self, now: Picoseconds) -> None:
        fe_clock = self._fe_clock
        self._commit(now, fe_clock)
        self._dispatch(now, fe_clock)
        # Stalled fetch cycles (unresolved branch, I-cache refill) only bump
        # a counter; the checks live here, so the common stalled cycle skips
        # the _fetch call entirely.
        frontend = self.frontend
        if frontend.waiting_branch is not None:
            frontend.stats.branch_stall_cycles += 1
        elif now < frontend.stall_until:
            frontend.stats.fetch_stall_cycles += 1
        else:
            self._fetch(now, fe_clock)

    def _commit(self, now: Picoseconds, fe_clock: DomainClock) -> None:
        # Cheap early-out before any further binding: most front-end cycles
        # commit nothing (empty ROB, or a head still executing).
        rob = self.rob
        entries = rob.entries
        if not entries or entries[0].completion_time is None:
            return
        sync = self.sync
        # Disabled synchronisation makes transfer the identity (and records
        # nothing), so the call is skipped outright on synchronous machines.
        sync_enabled = sync.enabled
        sync_stats = sync.stats
        windows_fe = self._fe_windows
        last_writer = self._last_writer
        int_regs = self.int_regs
        fp_regs = self.fp_regs
        lsq_entries = self.lsq.entries
        interval_countdown = self._interval_countdown
        trace_sync = self._trace_sync
        retired_append = self._retired.append
        committed = transfers = 0
        retire_width = self._retire_width
        while committed < retire_width and entries:
            head = entries[0]
            completion = head.completion_time
            if completion is None:
                break
            exec_domain = head.exec_domain
            if sync_enabled and exec_domain != _FRONT_END_DOMAIN:
                # Inline ``sync.transfer(completion, producer, fe_clock)``:
                # the commit check runs at ``now == fe_clock.next_edge``, so
                # for a completed head the capture edge clamps to *now* and
                # the synchroniser outcome reduces to the precomputed window
                # compare (see :meth:`_build_wake_windows`); only a head
                # completing in the future needs the true capture edge, and
                # then solely for the penalty statistic — it cannot commit
                # this cycle either way.  Statistics recording is identical
                # to the call.
                window = windows_fe[exec_domain]
                transfers += 1
                if completion > now:
                    if fe_clock.edge_at_or_after(completion) - completion < window:
                        sync_stats.penalties += 1
                        if trace_sync:
                            sync.on_penalty(completion, exec_domain, _FRONT_END_DOMAIN)
                    break
                if now - completion < window:
                    sync_stats.penalties += 1
                    if trace_sync:
                        sync.on_penalty(completion, exec_domain, _FRONT_END_DOMAIN)
                    break
            elif completion > now:
                break
            entries.popleft()
            rob.total_committed += 1
            committed += 1
            dest = head.dest
            if dest >= 0:
                regfile = fp_regs if dest >= FP_BASE_INDEX else int_regs
                regfile.allocated -= 1
                if regfile.allocated < regfile.logical:
                    raise RuntimeError("physical register file underflow")
                if last_writer.get(dest) is head:
                    del last_writer[dest]
            if head.is_memory_op:
                # Commit is in program order, and a memory op completes only
                # when the load/store unit performs its access (and sets its
                # domain), so it is the LSQ head.
                if not (
                    lsq_entries
                    and lsq_entries[0] is head
                    and exec_domain == _LOAD_STORE_DOMAIN
                ):
                    raise RuntimeError(
                        "a committing memory operation must have issued its access "
                        "and be the load/store queue's head"
                    )
                del lsq_entries[0]
            retired_append(head)
            # Both cache controllers end their intervals on the same commit.
            if interval_countdown:
                interval_countdown -= 1
                if not interval_countdown:
                    interval_countdown = self._end_cache_interval(now)
        self._interval_countdown = interval_countdown
        sync_stats.transfers += transfers
        if committed:
            self._last_commit_time = now

    def _dispatch(self, now: Picoseconds, fe_clock: DomainClock) -> None:
        frontend = self.frontend
        # Cheap early-out (same container binding as the main loop): nothing
        # decoded and ready means nothing to dispatch this cycle.
        fq_entries = frontend.fetch_queue.entries
        if not fq_entries or fq_entries[0].dispatch_ready_time > now:
            return
        rob = self.rob
        rob_entries = rob.entries
        lsq = self.lsq
        lsq_entries = lsq.entries
        pending_stores = lsq.pending_stores
        last_writer = self._last_writer
        last_writer_get = last_writer.get
        int_regs = self.int_regs
        fp_regs = self.fp_regs
        int_queue = self.int_queue
        fp_queue = self.fp_queue
        sync = self.sync
        sync_enabled = sync.enabled
        int_clock = self._int_clock
        fp_clock = self._fp_clock
        ilp_tracker = self._ilp_tracker
        # The structural hazards of _dispatch_blocked, as free slots read
        # once and counted down: the ROB bounds the group, and nothing else
        # frees a slot while the group dispatches.
        limit = min(self._decode_width, rob.capacity - len(rob_entries))
        lsq_free = lsq_slots = lsq.capacity - len(lsq_entries)
        int_regs_free = int_regs_slots = int_regs.total - int_regs.allocated
        fp_regs_free = fp_regs_slots = fp_regs.total - fp_regs.allocated
        # Negative while a downsized queue still holds more occupants.
        int_free = int_queue.capacity - int_queue.occupancy
        fp_free = fp_queue.capacity - fp_queue.occupancy
        dispatched = 0
        while dispatched < limit and fq_entries:
            inst = fq_entries[0]
            if inst.dispatch_ready_time > now:
                break
            is_fp = inst.is_fp
            if (fp_free if is_fp else int_free) <= 0:
                break
            dest = inst.dest
            if dest >= 0 and not (fp_regs_free if dest >= FP_BASE_INDEX else int_regs_free):
                break
            is_memory_op = inst.is_memory_op
            if is_memory_op and not lsq_free:
                break
            fq_entries.popleft()
            # Rename.  Each operand names its in-flight producer, if any; a
            # producer still without a completion time will wake this entry.
            source_count = inst.source_count
            if source_count == 0:
                producers: tuple[DynInst | None, ...] = ()
            elif source_count == 1:
                producers = (last_writer_get(inst.src0),)
            else:
                producers = (last_writer_get(inst.src0), last_writer_get(inst.src1))
            inst.producers = producers
            waits = 0
            for producer in producers:
                if producer is not None and producer.completion_time is None:
                    producer.consumers.append(inst)
                    waits += 1
            inst.waits = waits
            if dest >= 0:
                if dest >= FP_BASE_INDEX:
                    fp_regs_free -= 1
                else:
                    int_regs_free -= 1
                last_writer[dest] = inst
            rob_entries.append(inst)
            if is_memory_op:
                lsq_free -= 1
                lsq_entries.append(inst)
                if inst.is_store:
                    pending_stores.append(inst)
            if is_fp:
                fp_free -= 1
                queue = fp_queue
                queue_clock = fp_clock
            else:
                int_free -= 1
                queue = int_queue
                queue_clock = int_clock
            if sync_enabled:
                # Inline ``sync.transfer(now, fe_clock, queue_clock,
                # fifo=True)``: dispatch runs while the front-end edge *now*
                # is the globally earliest unconsumed edge, so the consumer's
                # capture edge ``edge_at_or_after(now)`` clamps to its
                # ``next_edge``, and a FIFO crossing never pays the extra
                # arbitration cycle — the call reduces to one attribute read
                # plus the transfer count it would have recorded (added
                # below).
                inst.queue_arrival_time = queue_clock.next_edge
            else:
                inst.queue_arrival_time = now
            queue.occupancy += 1
            queue.operand_reads += source_count
            if not waits:
                queue.schedule(inst)
            dispatched += 1
            # A window closes at its instruction, before the next one
            # dispatches: a downsizing takes effect at once, so the queues'
            # free slots are read again for the rest of the group.
            if ilp_tracker is not None and ilp_tracker.observe(inst):
                self._end_queue_window(now)
                int_free = int_queue.capacity - int_queue.occupancy
                fp_free = fp_queue.capacity - fp_queue.occupancy
        # Registers and LSQ slots taken by the group.
        taken = int_regs_slots - int_regs_free
        int_regs.allocated += taken
        int_regs.allocations += taken
        taken = fp_regs_slots - fp_regs_free
        fp_regs.allocated += taken
        fp_regs.allocations += taken
        lsq.stats.allocations += lsq_slots - lsq_free
        rob.total_dispatched += dispatched
        if sync_enabled:
            sync.stats.transfers += dispatched

    def _fetch(self, now: Picoseconds, fe_clock: DomainClock) -> None:
        """Fetch up to ``fetch_width`` instructions at front-end edge *now*
        into the fetch queue.

        The caller gates it: fetch is stalled while ``waiting_branch`` is set
        and before ``stall_until``.  An I-cache miss is served from the
        unified L2, across the crossing to the load/store clock and back, and
        stalls fetch until the block arrives.
        """
        frontend = self.frontend
        stats = frontend.stats
        fetch_queue = frontend.fetch_queue
        fq_entries = fetch_queue.entries
        fq_append = fq_entries.append
        icache = frontend.icache
        trace = frontend.trace
        start = cursor = frontend.cursor
        limit = cursor + frontend.fetch_width
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
        retired = self._retired
        # Committed records beyond the ROB's capacity can be reused.
        reusable = len(retired) - self.rob.capacity
        predictor = frontend.predictor
        btb = frontend.btb
        last_block = frontend.last_block
        block_bytes = icache.geometry.block_bytes
        period = fe_clock.period_ps
        decode_delay = frontend.decode_cycles * period
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
                    extra_delay = (frontend.icache_config.l1_latency[1] or 0) * period
                    dispatch_ready = now + decode_delay + extra_delay
                elif outcome is _MISS:
                    stats.icache_misses += 1
                    # The request crosses to the load/store clock, probes the
                    # unified L2 there, and the block crosses back.
                    ls_clock = self._ls_clock
                    transfer = self.sync.transfer
                    refill = self.hierarchy.access_l2(
                        pc, transfer(now, fe_clock, ls_clock), ls_clock.period_ps
                    )
                    frontend.stall_until = max(transfer(refill, ls_clock, fe_clock), now + period)
                    # The cursor does not advance: the same instruction is
                    # refetched after the refill (hitting the now-warm block,
                    # as ``last_block`` already points at it).
                    break

            bits = flags_col[cursor]
            if reusable > 0:
                reusable -= 1
                dyninst = retired.popleft()
                dyninst.completion_time = None
                dyninst.exec_domain = _INTEGER_DOMAIN
            else:
                dyninst = DynInst()
            dyninst.seq = cursor
            dyninst.op_id = op_col[cursor]
            dyninst.is_memory_op = bits & FLAG_MEMORY != 0
            dyninst.is_store = bits & FLAG_STORE != 0
            dyninst.is_fp = bits & FLAG_FP != 0
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

            if bits & FLAG_BRANCH:
                branches += 1
                taken = bits & FLAG_TAKEN != 0
                correct = predictor.predict_and_update(pc, taken)
                predicted_target = btb.lookup(pc)
                if taken:
                    btb.update(pc, target_col[cursor - 1])  # the branch's row
                if not correct:
                    # Fetch stops here until this branch's redirect.
                    stats.mispredictions += 1
                    frontend.waiting_branch = dyninst
                    break
                if taken:
                    if predicted_target is None:
                        # Correctly predicted direction but unknown target:
                        # one fetch bubble while the target is computed.
                        frontend.stall_until = now + period
                    # Cannot fetch past a taken branch in the same cycle.
                    last_block = None
                    break
        frontend.cursor = cursor
        frontend.last_block = last_block
        stats.fetched += cursor - start
        stats.icache_accesses += icache_accesses
        stats.icache_b_hits += icache_b_hits
        stats.branches += branches

    # --------------------------------------------------------- exec domains

    def _build_wake_windows(self) -> None:
        """Compute the wake-up windows from the current domain periods.

        The wake-up check always runs at ``now == consumer.next_edge`` (the
        edge being processed), where the synchronised readiness test
        ``transfer(completion, producer, consumer) <= now`` (the time it
        returns, not the statistics it records) reduces *exactly* to
        ``completion + window <= now`` with ``window =
        int(window_fraction * min(producer_period, consumer_period))``:

        - ``completion > now``: the consumer capture edge is a future edge,
          so the value is not ready — and ``completion + window > now`` too.
        - ``completion <= now``: ``edge_at_or_after`` clamps to the current
          edge, so the value is ready unless that edge falls inside the
          unsafe window after *completion* (``now - completion < window``),
          i.e. ready iff ``completion + window <= now``.

        This turns the per-producer synchronisation call of a wake-up into
        one integer add.  Windows are 0 within a domain and on the fully
        synchronous machine (transfers are free there).  The table is built
        in the constructor and rebuilt, in place, after every pending-event
        action (:meth:`_process_pending_events`), the only code that changes
        a domain's period; so the issue queues, the horizon skip and commit
        hold its rows by reference.
        """
        clock_by_name = self._clock_by_name
        fraction = self.sync.window_fraction if self.sync.enabled else 0.0
        for consumer, cclock in clock_by_name.items():
            windows = self._wake_window_table.setdefault(consumer, {})
            for producer, pclock in clock_by_name.items():
                windows[producer] = (
                    int(fraction * min(pclock.period_ps, cclock.period_ps))
                    if pclock is not cclock
                    else 0
                )

    def _integer_cycle(self, now: Picoseconds) -> None:
        queue = self.int_queue
        heap = queue.heap
        if heap and heap[0][0] <= now:
            queue.wake_up(now)
        ready = queue.ready
        if ready:
            clock = self._int_clock
            period = clock.period_ps
            units = self.int_units
            units.alu_slots_used = 0
            try_reserve = units.try_reserve
            issue_width = self._issue_width
            latency_by_op = _LATENCY_BY_OP_ID
            sync = self.sync
            sync_enabled = sync.enabled
            schedule_int = queue.schedule
            schedule_fp = self.fp_queue.schedule
            # Fetch stops at a mispredicted branch, so the one in flight is
            # the branch it waits on.
            waiting_branch = self.frontend.waiting_branch
            issued = 0
            index = 0
            # Oldest first; an entry without a free unit stays ready.
            while issued < issue_width and index < len(ready):
                inst = ready[index]
                op_id = inst.op_id
                latency_ps = latency_by_op[op_id] * period
                if not try_reserve(op_id, now, latency_ps):
                    index += 1
                    continue
                del ready[index]
                issued += 1
                if inst.is_memory_op:
                    agen = now + period
                    if sync_enabled:
                        # Inline ``sync.transfer(agen, clock, ls_clock,
                        # fifo=True)``: a FIFO crossing pays only the edge
                        # alignment (never the arbitration cycle), so the
                        # call is the capture-edge lookup plus the transfer
                        # count it would have recorded.
                        sync.stats.transfers += 1
                        arrival = self._ls_clock.edge_at_or_after(agen)
                    else:
                        arrival = agen
                    heappush(self.lsq.heap, (arrival, inst.seq, inst))
                else:
                    completion = now + latency_ps
                    inst.completion_time = completion
                    inst.exec_domain = _INTEGER_DOMAIN
                    if inst.consumers:
                        _wake_consumers(inst.consumers, schedule_int, schedule_fp)
                    if inst is waiting_branch:
                        self._schedule_branch_redirect(inst, completion, clock)
            queue.occupancy -= issued
            queue.total_issued += issued
        # Inline occupancy sample (one per processed edge, as always).
        queue.occupancy_samples += 1
        queue.occupancy_accumulator += queue.occupancy

    def _floating_point_cycle(self, now: Picoseconds) -> None:
        queue = self.fp_queue
        heap = queue.heap
        if heap and heap[0][0] <= now:
            queue.wake_up(now)
        ready = queue.ready
        if ready:
            period = self._fp_clock.period_ps
            units = self.fp_units
            units.alu_slots_used = 0
            try_reserve = units.try_reserve
            issue_width = self._issue_width
            latency_by_op = _LATENCY_BY_OP_ID
            schedule_int = self.int_queue.schedule
            schedule_fp = queue.schedule
            issued = 0
            index = 0
            while issued < issue_width and index < len(ready):
                inst = ready[index]
                op_id = inst.op_id
                latency_ps = latency_by_op[op_id] * period
                if not try_reserve(op_id, now, latency_ps):
                    index += 1
                    continue
                del ready[index]
                issued += 1
                inst.completion_time = now + latency_ps
                inst.exec_domain = _FLOATING_POINT_DOMAIN
                if inst.consumers:
                    _wake_consumers(inst.consumers, schedule_int, schedule_fp)
            queue.occupancy -= issued
            queue.total_issued += issued
        queue.occupancy_samples += 1
        queue.occupancy_accumulator += queue.occupancy

    def _load_store_cycle(self, now: Picoseconds) -> None:
        lsq = self.lsq
        heap = lsq.heap
        ready = lsq.ready
        # Wake-up, as IssueQueue.wake_up: arrivals leave the heap in arrival
        # order and join the ready list in program order.
        while heap and heap[0][0] <= now:
            inst = heappop(heap)[2]
            if ready and ready[-1].seq > inst.seq:
                insort(ready, inst, key=_SEQ_KEY)
            else:
                ready.append(inst)
        if not ready:
            return
        period = self._ls_clock.period_ps
        cache_ports = self._cache_ports
        access_data = self.hierarchy.access_data
        pending_stores = lsq.pending_stores
        lsq_stats = lsq.stats
        schedule_int = self.int_queue.schedule
        schedule_fp = self.fp_queue.schedule
        performed = 0
        index = 0
        # Oldest first; a load held by an older pending store stays ready.
        while performed < cache_ports and index < len(ready):
            inst = ready[index]
            if not inst.is_store:
                if lsq.pending_older_store(inst) is not None:
                    if lsq.forwardable_store(inst, now) is None:
                        index += 1
                        continue
                    completion = now + period
                    lsq_stats.loads_forwarded += 1
                else:
                    completion = access_data(
                        inst.address, is_store=False, now_ps=now, period_ps=period
                    )
            else:
                completion = access_data(inst.address, is_store=True, now_ps=now, period_ps=period)
                pending_stores.remove(inst)
            del ready[index]
            inst.completion_time = completion
            inst.exec_domain = _LOAD_STORE_DOMAIN
            performed += 1
            if inst.consumers:
                _wake_consumers(inst.consumers, schedule_int, schedule_fp)

    #: Pipeline depth already represented by the explicit fetch/decode/dispatch
    #: and issue modelling.  The configured misprediction penalties (Table 5)
    #: are *total* refill depths, so the explicitly added redirect delay is the
    #: configured penalty minus what the re-fetched instructions will pay
    #: anyway on their way back to the execution units.
    _MODELLED_REFILL_FRONT_END_CYCLES = 4
    _MODELLED_REFILL_INTEGER_CYCLES = 3

    def _schedule_branch_redirect(
        self, branch: DynInst, completion: Picoseconds, int_clock: DomainClock
    ) -> None:
        frontend = self.frontend
        assert frontend is not None
        fe_clock = self.clocks[Domain.FRONT_END]
        extra_int = max(
            0,
            self.spec.mispredict_integer_cycles - self._MODELLED_REFILL_INTEGER_CYCLES,
        )
        extra_fe = max(
            0,
            self.spec.mispredict_front_end_cycles
            - self._MODELLED_REFILL_FRONT_END_CYCLES,
        )
        resolved = completion + extra_int * int_clock.period_ps
        redirect = self.sync.transfer(resolved, int_clock, fe_clock)
        redirect += extra_fe * fe_clock.period_ps
        # Fetch resumes only if it is stalled on this branch.
        if frontend.waiting_branch is branch:
            frontend.waiting_branch = None
            frontend.stall_until = max(frontend.stall_until, redirect)
            frontend.last_block = None

    # ------------------------------------------------------------ adaptation

    def _end_queue_window(self, now: Picoseconds) -> None:
        """Evaluate both queue controllers on the instruction that closes
        the ILP tracker's widest window (integer first), then reset it."""
        tracker = self._ilp_tracker
        assert tracker is not None
        for controller, domain, queue, fp in (
            (self._int_queue_controller, Domain.INTEGER, self.int_queue, False),
            (self._fp_queue_controller, Domain.FLOATING_POINT, self.fp_queue, True),
        ):
            assert controller is not None
            estimates = tracker.estimates(fp=fp)
            decision = controller.evaluate(estimates)
            if self._trace_interval:
                self._trace_decision(
                    now, decision, ISSUE_QUEUE_SIZES, ilp_estimates=list(estimates.values())
                )
            if decision.changed and domain not in self._changes_in_progress:
                size = ISSUE_QUEUE_SIZES[decision.best]
                self._apply_change(
                    controller.name,
                    domain,
                    size,
                    str(size),
                    now,
                    apply_structure=partial(queue.set_capacity, size),
                    new_frequency=ISSUE_QUEUE_FREQUENCY_GHZ[size],
                    upsizing=size > queue.capacity,
                    lock_basis=self._last_interval_duration,
                )
        tracker.reset()

    def _end_cache_interval(self, now: Picoseconds) -> int:
        """Evaluate both cache controllers on the commit that ends an
        adaptation interval (D/L2 first); return the next interval's length
        in committed instructions."""
        interval_duration = now - self._interval_start_time
        self._interval_start_time = now
        self._last_interval_duration = max(interval_duration, 1)
        interval_instructions = self.control.interval_instructions
        frontend = self.frontend
        assert frontend is not None
        for controller, domain, configs, apply_config in (
            (
                self._dcache_controller,
                Domain.LOAD_STORE,
                ADAPTIVE_DCACHE_CONFIGS,
                self.hierarchy.apply_config,
            ),
            (
                self._icache_controller,
                Domain.FRONT_END,
                ADAPTIVE_ICACHE_CONFIGS,
                partial(frontend.apply_icache_config, use_b_partition=self.spec.use_b_partitions),
            ),
        ):
            assert controller is not None
            structure = controller.name
            decision = controller.evaluate_interval()
            if self._trace_interval:
                self._trace_decision(
                    now,
                    decision,
                    [config.name for config in configs],
                    interval_instructions=interval_instructions,
                    interval_duration_ps=interval_duration,
                )
            index = decision.best
            config = configs[index]
            if decision.changed and domain not in self._changes_in_progress:
                self._apply_change(
                    structure,
                    domain,
                    index,
                    config.name,
                    now,
                    apply_structure=partial(apply_config, config),
                    new_frequency=config.frequency_ghz,
                    upsizing=config.frequency_ghz < self.clocks[domain].frequency_ghz,
                    lock_basis=self._last_interval_duration,
                )
            else:
                self._record_configuration(structure, domain, index, config.name, now)
        return interval_instructions

    def _trace_decision(
        self,
        now: Picoseconds,
        decision: ControllerDecision,
        configurations: Sequence[str | int],
        **extra: object,
    ) -> None:
        """Emit one ``controller-interval`` event: the decision, the
        configurations its indices name, and the structure's *extra* fields."""
        assert self.recorder is not None
        self.recorder.emit(
            CONTROLLER_INTERVAL,
            now,
            self.rob.total_committed,
            structure=decision.structure,
            configurations=list(configurations),
            previous_index=decision.previous,
            best_index=decision.best,
            raw_best_index=decision.raw_best,
            values=list(decision.values),
            margin=decision.margin,
            suppressed_by=decision.suppressed_by,
            pending_candidate=decision.pending_candidate,
            pending_count=decision.pending_count,
            changed=decision.changed,
            **extra,
        )

    def _record_configuration(
        self, structure: str, domain: Domain, index: int, configuration: str, now: Picoseconds
    ) -> None:
        self._configuration_changes.append(
            ConfigurationChange(
                committed_instructions=self.rob.total_committed,
                time_ps=now,
                domain=domain.value,
                structure=structure,
                configuration=configuration,
                index=index,
            )
        )

    def _apply_change(
        self,
        structure: str,
        domain: Domain,
        index: int,
        configuration: str,
        now: Picoseconds,
        *,
        apply_structure: Callable[[], None],
        new_frequency: float,
        upsizing: bool,
        lock_basis: Picoseconds,
    ) -> None:
        """Resize one structure and retune its domain's clock.

        The new frequency takes effect once the PLL re-locks; the lock time
        is drawn from *lock_basis* (see :meth:`PLLModel.sample_lock_ps`).  A
        downsized structure is safe at the old, slower frequency, so it
        switches at once; an upsized one needs the new, slower clock, so it
        switches with it.
        """
        # ``finish`` captures the objects it touches, never ``self``: a run
        # that ends with this change still pending leaves no reference cycle
        # through the processor.
        clock = self.clocks[domain]
        lock_time = self.pll.sample_lock_ps(lock_basis)
        changes_in_progress = self._changes_in_progress
        changes_in_progress.add(domain)
        fire_time = now + lock_time
        recorder = self.recorder if self._trace_freq else None
        rob = self.rob

        def finish() -> None:
            old_frequency = clock.frequency_ghz
            if upsizing:
                apply_structure()
            clock.set_frequency(new_frequency)
            changes_in_progress.discard(domain)
            if recorder is not None:
                recorder.emit(
                    FREQUENCY_CHANGE,
                    fire_time,
                    rob.total_committed,
                    domain=domain.value,
                    old_ghz=old_frequency,
                    new_ghz=new_frequency,
                )

        if not upsizing:
            apply_structure()
        self._pending_events.append((fire_time, finish))
        self._record_configuration(structure, domain, index, configuration, now)
        if self._trace_reconfig:
            assert self.recorder is not None
            self.recorder.emit(
                RECONFIGURATION,
                now,
                self.rob.total_committed,
                structure=structure,
                domain=domain.value,
                index=index,
                configuration=configuration,
                upsizing=upsizing,
                lock_time_ps=lock_time,
                effective_time_ps=fire_time,
            )

    # ------------------------------------------------------------- results

    @staticmethod
    def _geometry_dict(geometry: CacheGeometry) -> dict[str, int]:
        return {
            "size_kb": geometry.size_kb,
            "associativity": geometry.associativity,
            "sub_banks": geometry.sub_banks,
            "block_bytes": geometry.block_bytes,
        }

    @staticmethod
    def _profile_dict(profile: dict[str, int] | dict[int, int]) -> dict[str, int]:
        # String keys so the histogram survives JSON round-trips losslessly.
        return {str(ways): count for ways, count in sorted(profile.items())}

    @staticmethod
    def _predictor_size_kb(predictor: BranchPredictorGeometry) -> float:
        """Storage footprint of the hybrid predictor (KB of counter/history bits)."""
        bits = (
            2 * (predictor.gshare_entries + predictor.meta_entries)
            + 2 * predictor.local_pht_entries
            + predictor.local_history_bits * predictor.local_bht_entries
        )
        return bits / 8 / 1024

    def _build_result(self, workload_name: str) -> RunResult:
        frontend = self.frontend
        assert frontend is not None
        hierarchy_stats = self.hierarchy.stats
        spec = self.spec
        if spec.is_adaptive:
            # The resizable machines carry (and leak) the full physical
            # arrays; the energy model prices partial-activation probes of
            # them via the recorded probe-width histograms.
            l1i_geometry = frontend.icache.geometry
            l1d_geometry = self.hierarchy.l1d.geometry
            l2_geometry = self.hierarchy.l2.geometry
            queue_entries = max(ISSUE_QUEUE_SIZES)
            int_queue_entries = fp_queue_entries = queue_entries
        else:
            l1i_geometry = spec.icache.icache
            l1d_geometry = spec.dcache.l1
            l2_geometry = spec.dcache.l2
            int_queue_entries = spec.int_queue_size
            fp_queue_entries = spec.fp_queue_size
        params = self.params
        result = RunResult(
            workload=workload_name,
            machine=self.spec.describe(),
            style=self.spec.style.value,
            committed_instructions=self.rob.total_committed,
            execution_time_ps=self._last_commit_time,
            domain_cycles={
                domain.value: clock.cycle_count
                for domain, clock in self.clocks.items()
            },
            final_frequencies_ghz={
                domain.value: clock.frequency_ghz
                for domain, clock in self.clocks.items()
            },
            branch_predictions=frontend.stats.branches,
            branch_mispredictions=frontend.stats.mispredictions,
            icache_accesses=frontend.stats.icache_accesses,
            icache_b_hits=frontend.stats.icache_b_hits,
            icache_misses=frontend.stats.icache_misses,
            loads=hierarchy_stats.loads,
            stores=hierarchy_stats.stores,
            l1d_hits_a=hierarchy_stats.l1_hits_a,
            l1d_hits_b=hierarchy_stats.l1_hits_b,
            l1d_misses=hierarchy_stats.l1_misses,
            l2_hits_a=hierarchy_stats.l2_hits_a,
            l2_hits_b=hierarchy_stats.l2_hits_b,
            l2_misses=hierarchy_stats.l2_misses,
            memory_accesses=self.memory.stats.accesses,
            loads_forwarded=self.lsq.stats.loads_forwarded,
            sync_transfers=self.sync.stats.transfers,
            sync_penalties=self.sync.stats.penalties,
            fetch_stall_cycles=frontend.stats.fetch_stall_cycles,
            branch_stall_cycles=frontend.stats.branch_stall_cycles,
            int_queue_average_occupancy=self.int_queue.average_occupancy,
            fp_queue_average_occupancy=self.fp_queue.average_occupancy,
            configuration_changes=list(self._configuration_changes),
            phase_adaptive=self.phase_adaptive,
            fetched=frontend.stats.fetched,
            rob_dispatches=self.rob.total_dispatched,
            int_queue_dispatches=self.int_queue.total_dispatched,
            fp_queue_dispatches=self.fp_queue.total_dispatched,
            int_queue_issues=self.int_queue.total_issued,
            fp_queue_issues=self.fp_queue.total_issued,
            int_queue_occupancy_cycles=self.int_queue.occupancy_accumulator,
            fp_queue_occupancy_cycles=self.fp_queue.occupancy_accumulator,
            int_queue_operand_reads=self.int_queue.operand_reads,
            fp_queue_operand_reads=self.fp_queue.operand_reads,
            int_regfile_writes=self.int_regs.allocations,
            fp_regfile_writes=self.fp_regs.allocations,
            int_alu_ops=self.int_units.alu_ops,
            int_complex_ops=self.int_units.complex_ops_executed,
            fp_alu_ops=self.fp_units.alu_ops,
            fp_complex_ops=self.fp_units.complex_ops_executed,
            lsq_allocations=self.lsq.stats.allocations,
            cache_geometries={
                "l1i": self._geometry_dict(l1i_geometry),
                "l1d": self._geometry_dict(l1d_geometry),
                "l2": self._geometry_dict(l2_geometry),
            },
            cache_access_profile={
                "l1i": self._profile_dict(frontend.icache.access_profile),
                "l1d": self._profile_dict(self.hierarchy.l1d.access_profile),
                "l2": self._profile_dict(self.hierarchy.l2.access_profile),
            },
            structure_entries={
                "rob": params.reorder_buffer_entries,
                "lsq": params.load_store_queue_entries,
                "int_regfile": params.physical_int_registers,
                "fp_regfile": params.physical_fp_registers,
                "int_queue": int_queue_entries,
                "fp_queue": fp_queue_entries,
            },
            predictor_size_kb=self._predictor_size_kb(spec.icache.predictor),
            horizon_skipped_edges=self.horizon_skipped_edges,
        )
        return result
