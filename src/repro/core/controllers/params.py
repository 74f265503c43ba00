"""Tunable parameters of the phase-adaptive control algorithms."""

from __future__ import annotations

from dataclasses import dataclass

from repro.clocks.time import ns_to_ps


@dataclass(frozen=True, slots=True)
class AdaptiveControlParams:
    """Knobs of the phase-adaptive controllers.

    Parameters
    ----------
    interval_instructions:
        Length of the cache controller's adaptation interval in committed
        instructions.  The paper uses 15 000; scaled-down runs typically use
        an interval around one tenth of their simulation window so several
        adaptations occur.
    adapt_caches / adapt_queues:
        Enable the cache-pair / issue-queue controllers individually (useful
        for ablations).
    pll_interval_scaled:
        When True the PLL lock time tracks the duration of the previous
        adaptation interval (the paper's "comparable to the PLL lock-down
        time" relationship, preserved under window scaling).  When False the
        paper's absolute 10-20 microsecond lock times are used.
    pll_mean_us / pll_min_us / pll_max_us:
        Absolute lock-time distribution used when not interval-scaled.
    icache_miss_time_ns:
        Constant estimate of the cost of an instruction-cache miss (service
        from L2), used in the I-cache controller's cost function.
    memory_time_ns:
        Constant estimate of a main-memory access, used as the beyond-L2 term
        in the D/L2 controller's cost function.
    cache_hysteresis / queue_hysteresis:
        Relative margin by which an alternative configuration's score must
        beat the current one before a (PLL-relock-costing) change is
        requested.  Small engineering guard against sampling noise at the
        scaled-down interval lengths used here.
    cache_consecutive_decisions / queue_consecutive_decisions:
        Number of consecutive identical decisions required before a
        (PLL-relock-costing) reconfiguration is requested.
    """

    interval_instructions: int = 15_000
    adapt_caches: bool = True
    adapt_queues: bool = True
    pll_interval_scaled: bool = True
    pll_mean_us: float = 15.0
    pll_min_us: float = 10.0
    pll_max_us: float = 20.0
    icache_miss_time_ns: float = 20.0
    memory_time_ns: float = 94.0
    cache_hysteresis: float = 0.08
    cache_consecutive_decisions: int = 1
    cache_b_hit_overlap_factor: float = 0.5
    queue_hysteresis: float = 0.30
    queue_consecutive_decisions: int = 3

    def __post_init__(self) -> None:
        if self.interval_instructions < 100:
            raise ValueError("interval_instructions must be at least 100")
        if not 0 <= self.cache_hysteresis < 0.5:
            raise ValueError("cache_hysteresis must be in [0, 0.5)")
        if not 0 <= self.queue_hysteresis < 0.5:
            raise ValueError("queue_hysteresis must be in [0, 0.5)")
        if self.queue_consecutive_decisions < 1:
            raise ValueError("queue_consecutive_decisions must be >= 1")

    @property
    def icache_miss_time_ps(self) -> int:
        """I-cache miss service estimate in picoseconds."""
        return ns_to_ps(self.icache_miss_time_ns)

    @property
    def memory_time_ps(self) -> int:
        """Main-memory access estimate in picoseconds."""
        return ns_to_ps(self.memory_time_ns)
