"""Front-end state: the instruction cache, branch prediction and the fetch queue.

The front end holds the (resizable) instruction cache, the jointly sized
hybrid branch predictor, a small BTB, the fetch queue and the position of
fetch in the trace.  :class:`~repro.core.processor.MCDProcessor` is the one
implementation of fetch, as it is of dispatch and commit: it reads the
trace's flat columns (:class:`~repro.workloads.generator.CompiledTrace`, the
one trace type) at ``cursor`` and fills
:class:`~repro.pipeline.dyninst.DynInst` records, reusing committed ones.
Fetch is trace driven: instructions come in committed program order, so
there is no wrong-path fetch; a mispredicted branch instead stalls fetch
until the branch has resolved and the configured misprediction penalty has
elapsed (the standard trace-driven modelling of branch mispredictions).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.branch.btb import BranchTargetBuffer
from repro.branch.hybrid import HybridPredictor, build_predictor
from repro.caches.accounting import AccountingCache
from repro.clocks.time import Picoseconds
from repro.timing.cacti import CacheGeometry
from repro.pipeline.dyninst import DynInst
from repro.timing.tables import ICacheConfig
from repro.workloads.generator import CompiledTrace


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

    The processor's fetch appends to ``entries`` while fewer than
    ``capacity`` are buffered; its dispatch takes them from the head.
    """

    def __init__(self, capacity: int = 16) -> None:
        if capacity < 1:
            raise ValueError("fetch queue capacity must be positive")
        self.capacity = capacity
        self.entries: deque[DynInst] = deque()


class FrontEnd:
    """Fetch state for one run.

    Parameters
    ----------
    trace:
        The instruction stream in program order, as the columns of a
        :class:`~repro.workloads.generator.CompiledTrace`.
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
    """

    def __init__(
        self,
        trace: CompiledTrace,
        *,
        icache_config: ICacheConfig,
        physical_geometry: CacheGeometry | None = None,
        fetch_width: int = 8,
        fetch_queue_capacity: int = 16,
        decode_cycles: int = 2,
        use_b_partition: bool = True,
    ) -> None:
        #: The compiled trace fetch reads, and the index of its next row.
        self.trace = trace
        self.cursor = 0
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

        #: Time before which fetch is stalled (redirect or I-cache refill).
        self.stall_until: Picoseconds = 0
        #: The unresolved mispredicted branch fetch is stalled on, if any.
        self.waiting_branch: DynInst | None = None
        #: The fetch block the I-cache was last probed for; ``None`` after a
        #: taken branch or a redirect, so the next fetch probes again.
        self.last_block: int | None = None

    @property
    def trace_exhausted(self) -> bool:
        """True once fetch has read the last row of a trace that ends."""
        return self.trace.finite and self.cursor >= self.trace.length

    def apply_icache_config(self, config: ICacheConfig, *, use_b_partition: bool) -> None:
        """Repartition the I-cache for *config* (contents are preserved)."""
        self.icache_config = config
        self.icache.set_a_ways(config.ways)
        self.icache.set_b_enabled(use_b_partition and config.l1_latency[1] is not None)
