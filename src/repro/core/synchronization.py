"""Cross-domain synchronisation model (Sjogren & Myers style).

Data crossing a clock-domain boundary is captured by the consumer domain at
one of its own clock edges.  If the producing event lands too close to the
consuming edge — within 30 % of the period of the faster of the two clocks —
the synchroniser cannot safely capture it and the data is delayed by one
additional consumer cycle.  This is the same arbitration window model the MCD
papers use and, as there, superscalar and out-of-order execution hide most of
the resulting stalls.

For the fully synchronous baseline the model is disabled: every domain shares
one clock, so a transfer costs nothing beyond the natural edge alignment the
consuming unit already performs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.clocks.clock import DomainClock
from repro.clocks.time import Picoseconds

#: The paper's arbitration window: 30 % of the faster clock's period.
DEFAULT_WINDOW_FRACTION = 0.3


@dataclass(slots=True)
class SynchronizationStats:
    """Counters of boundary crossings and penalty cycles."""

    transfers: int = 0
    penalties: int = 0


class SynchronizationModel:
    """Computes when a value produced in one domain is usable in another.

    Parameters
    ----------
    enabled:
        When False (fully synchronous machine) transfers are free.
    window_fraction:
        Fraction of the faster clock's period that constitutes the unsafe
        capture window (0.3 in the paper).
    """

    def __init__(
        self, *, enabled: bool = True, window_fraction: float = DEFAULT_WINDOW_FRACTION
    ) -> None:
        if not 0 <= window_fraction < 1:
            raise ValueError("window_fraction must be in [0, 1)")
        self.enabled = enabled
        self.window_fraction = window_fraction
        self.stats = SynchronizationStats()

    def transfer(
        self,
        event_time: Picoseconds,
        producer_clock: DomainClock,
        consumer_clock: DomainClock,
        *,
        fifo: bool = False,
    ) -> Picoseconds:
        """Return the earliest time the consumer domain can use the value.

        The value becomes visible at the consumer's next clock edge at or
        after *event_time*; if that edge falls inside the unsafe window the
        synchroniser adds one further consumer cycle.

        ``fifo=True`` models a crossing that lands in an existing hardware
        queue (issue queue or load/store queue).  Following the companion
        "Hiding Synchronization Delays in a GALS Processor" result the paper
        builds on, such crossings are decoupled by the queue and do not pay
        the extra arbitration cycle — only the edge alignment.
        """
        if not self.enabled or producer_clock is consumer_clock:
            return event_time
        edge = consumer_clock.edge_at_or_after(event_time)
        window = int(
            self.window_fraction
            * min(producer_clock.period_ps, consumer_clock.period_ps)
        )
        delayed = (edge - event_time < window) and not fifo
        self.stats.transfers += 1
        if delayed:
            self.stats.penalties += 1
            if consumer_clock.jitter_fraction:
                # The extra cycle must land on a true jittered edge, not a
                # nominal-period extrapolation the clock never produces.
                return consumer_clock.edge_at_or_after(edge + 1)
            return edge + consumer_clock.period_ps
        return edge
