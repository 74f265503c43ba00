"""Phase-adaptive Accounting-Cache controller (Section 3.1 of the paper).

At the end of every adaptation interval the controller reads the MRU-position
hit counters of the cache (or cache pair) it manages and computes, for every
possible A-partition width, the total access *time* the interval would have
cost under that configuration — A-partition hits pay the A latency, B hits
and misses additionally pay the B latency, and last-level misses pay a
constant memory estimate.  Latencies are divided by the frequency each
configuration permits, so the tradeoff between a small, fast partition and a
large, slow one is captured directly.  The configuration with the minimum
reconstructed cost is the interval's raw winner, which the shared damping
rule (:mod:`repro.core.controllers.damping`) turns into the configuration
for the next interval.

The same controller class manages both the jointly resized L1-D/L2 pair and
the I-cache (with a single level).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.caches.accounting import AccountingCache
from repro.clocks.time import Picoseconds, ghz_to_period_ps
from repro.core.controllers.damping import ControllerDecision, DampedController


@dataclass(frozen=True, slots=True)
class CacheLevel:
    """One cache level managed by the controller.

    ``latencies`` holds an ``(a_cycles, b_cycles)`` pair per configuration
    index, and ``a_ways`` the A-partition width per configuration index.
    """

    cache: AccountingCache
    latencies: tuple[tuple[int, int | None], ...]
    a_ways: tuple[int, ...]


class PhaseAdaptiveCacheController(DampedController):
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

    ``hysteresis`` and ``consecutive_decisions_required`` damp the choice
    (:class:`~repro.core.controllers.damping.DampedController`).
    """

    def __init__(
        self,
        *,
        name: str,
        levels: tuple[CacheLevel, ...],
        frequencies_ghz: tuple[float, ...],
        beyond_last_level_ps: Picoseconds,
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
        super().__init__(
            name=name,
            initial_index=initial_index,
            hysteresis=hysteresis,
            consecutive_decisions_required=consecutive_decisions_required,
        )
        self.levels = levels
        self.frequencies_ghz = frequencies_ghz
        self.beyond_last_level_ps = beyond_last_level_ps
        self.b_hit_overlap_factor = b_hit_overlap_factor

    # ------------------------------------------------------------------ API

    def evaluate_interval(self) -> ControllerDecision:
        """Pick the configuration for the next interval and reset counters.

        Called on the commit that ends each adaptation interval; the
        processor counts the commits.  The cheapest configuration is the raw
        winner, the smaller one on a tie.
        """
        costs = tuple(
            self._configuration_cost_ps(index)
            for index in range(len(self.frequencies_ghz))
        )
        decision = self._decide(costs, costs.index(min(costs)))
        for level in self.levels:
            level.cache.reset_interval()
        return decision

    def _holds(self, candidate: float, current: float, margin: float) -> bool:
        # Costs: the candidate must undercut the current cost by the margin.
        return candidate > current * (1.0 - margin)

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
