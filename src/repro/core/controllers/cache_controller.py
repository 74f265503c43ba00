"""Phase-adaptive Accounting-Cache controller (Section 3.1 of the paper).

At the end of every adaptation interval the controller reads the MRU-position
hit counters of the cache (or cache pair) it manages and computes, for every
possible A-partition width, the total access *time* the interval would have
cost under that configuration — A-partition hits pay the A latency, B hits
and misses additionally pay the B latency, and last-level misses pay a
constant memory estimate.  Latencies are divided by the frequency each
configuration permits, so the tradeoff between a small, fast partition and a
large, slow one is captured directly.  The configuration with the minimum
reconstructed cost is selected for the next interval.

The same controller class manages both the jointly resized L1-D/L2 pair and
the I-cache (with a single level).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.caches.accounting import AccountingCache
from repro.clocks.time import Picoseconds, ghz_to_period_ps


@dataclass(frozen=True, slots=True)
class CacheLevel:
    """One cache level managed by the controller.

    ``latencies`` holds an ``(a_cycles, b_cycles)`` pair per configuration
    index, and ``a_ways`` the A-partition width per configuration index.
    """

    cache: AccountingCache
    latencies: tuple[tuple[int, int | None], ...]
    a_ways: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class CacheControllerDecision:
    """Result of one interval evaluation.

    The trailing fields are pure diagnostics for the telemetry layer
    (:mod:`repro.obs`): ``raw_best_index`` is the cost-minimal configuration
    *before* hysteresis/streak damping, ``margin`` the hysteresis margin that
    applied, and ``suppressed_by`` names the mechanism (``"hysteresis"`` or
    ``"streak"``, empty when the raw winner was taken) that kept the
    controller on its current configuration.  They never influence the
    selection itself.
    """

    best_index: int
    previous_index: int
    costs_ps: tuple[float, ...]
    interval_instructions: int
    raw_best_index: int = -1
    margin: float = 0.0
    pending_candidate: int | None = None
    pending_count: int = 0
    suppressed_by: str = ""

    @property
    def changed(self) -> bool:
        """True when the controller selected a different configuration."""
        return self.best_index != self.previous_index


class PhaseAdaptiveCacheController:
    """Interval-based configuration selector for one cache or cache pair.

    Parameters
    ----------
    name:
        Identifier used in decision records ("icache" or "dcache").
    levels:
        The cache levels resized together (one for the I-cache, two for the
        L1-D/L2 pair).
    frequencies_ghz:
        Domain frequency permitted by each configuration index.
    beyond_last_level_ps:
        Constant cost charged for each miss from the last managed level
        (L2-service estimate for the I-cache, main-memory estimate for the
        D/L2 pair).
    interval_instructions:
        Adaptation interval in committed instructions.
    """

    def __init__(
        self,
        *,
        name: str,
        levels: tuple[CacheLevel, ...],
        frequencies_ghz: tuple[float, ...],
        beyond_last_level_ps: Picoseconds,
        interval_instructions: int = 15_000,
        initial_index: int = 0,
        hysteresis: float = 0.0,
        consecutive_decisions_required: int = 1,
        b_hit_overlap_factor: float = 0.5,
    ) -> None:
        if not levels:
            raise ValueError("controller needs at least one cache level")
        n_configs = len(frequencies_ghz)
        for level in levels:
            if len(level.latencies) != n_configs or len(level.a_ways) != n_configs:
                raise ValueError("per-level tables must match the configuration count")
        if not 0 <= hysteresis < 0.5:
            raise ValueError("hysteresis must be in [0, 0.5)")
        if consecutive_decisions_required < 1:
            raise ValueError("consecutive_decisions_required must be >= 1")
        self.name = name
        self.levels = levels
        self.frequencies_ghz = frequencies_ghz
        self.beyond_last_level_ps = beyond_last_level_ps
        self.interval_instructions = interval_instructions
        self.current_index = initial_index
        self.hysteresis = hysteresis
        self.consecutive_decisions_required = consecutive_decisions_required
        self.b_hit_overlap_factor = b_hit_overlap_factor
        self._pending_candidate: int | None = None
        self._pending_count = 0
        self.decisions: list[CacheControllerDecision] = []

    # ------------------------------------------------------------------ API

    def evaluate_interval(self) -> CacheControllerDecision:
        """Pick the best configuration for the next interval and reset counters.

        Called once per ``interval_instructions`` committed instructions;
        the processor counts the commits.
        """
        costs = tuple(
            self._configuration_cost_ps(index)
            for index in range(len(self.frequencies_ghz))
        )
        best_index = min(range(len(costs)), key=lambda index: (costs[index], index))
        raw_best_index = best_index
        margin = 0.0
        suppressed_by = ""
        # A change pays a PLL re-lock, so the winner must beat the current
        # configuration by the hysteresis margin, and must keep winning for
        # ``consecutive_decisions_required`` intervals, to displace it.
        if best_index != self.current_index:
            current_cost = costs[self.current_index]
            margin = self.hysteresis if best_index > self.current_index else 0.02
            if costs[best_index] > current_cost * (1.0 - margin):
                best_index = self.current_index
                suppressed_by = "hysteresis"
        if best_index != self.current_index:
            if best_index == self._pending_candidate:
                self._pending_count += 1
            else:
                self._pending_candidate = best_index
                self._pending_count = 1
            if self._pending_count < self.consecutive_decisions_required:
                best_index = self.current_index
                suppressed_by = "streak"
            else:
                self._pending_candidate = None
                self._pending_count = 0
        else:
            self._pending_candidate = None
            self._pending_count = 0
        decision = CacheControllerDecision(
            best_index=best_index,
            previous_index=self.current_index,
            costs_ps=costs,
            interval_instructions=self.interval_instructions,
            raw_best_index=raw_best_index,
            margin=margin,
            pending_candidate=self._pending_candidate,
            pending_count=self._pending_count,
            suppressed_by=suppressed_by,
        )
        self.decisions.append(decision)
        self.current_index = best_index
        for level in self.levels:
            level.cache.reset_interval()
        return decision

    # ----------------------------------------------------------- internals

    def _configuration_cost_ps(self, index: int) -> float:
        period = ghz_to_period_ps(self.frequencies_ghz[index])
        total = 0.0
        last_level_misses = 0
        for level in self.levels:
            stats = level.cache.interval_stats
            a_latency, b_latency = level.latencies[index]
            a_ways = level.a_ways[index]
            has_b = b_latency is not None
            a_hits, b_hits, misses = stats.what_if(a_ways, b_enabled=has_b)
            accesses = stats.accesses
            # Every access pays the A-partition probe.
            total += accesses * a_latency * period
            # B hits additionally pay the B-partition probe, discounted by the
            # overlap factor because out-of-order execution and the decoupled
            # fetch pipeline hide part of that latency.  Misses are not
            # charged the B probe: they cost the same in every configuration
            # (the block is not resident anywhere), and charging them would
            # let transient bursts of compulsory misses drag the controller
            # toward the largest configuration for no steady-state benefit.
            if has_b:
                total += b_hits * b_latency * period * self.b_hit_overlap_factor
            last_level_misses = misses
        total += last_level_misses * self.beyond_last_level_ps
        return total
