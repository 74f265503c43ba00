"""Hardware-style adaptive control algorithms (Section 3 of the paper).

Two controllers drive the phase-adaptive machine:

* :class:`PhaseAdaptiveCacheController` — the Accounting-Cache controller.
  Every adaptation interval it reconstructs, from MRU-position counters, the
  access cost every possible configuration *would have had* over the interval
  just ended and picks the cheapest for the next interval.
* :class:`PhaseAdaptiveQueueController` — the ILP-tracking issue-queue
  controller.  Timestamp-based dependence-height tracking estimates the
  effective ILP a 16/32/48/64-entry queue could extract, scales each by the
  frequency that queue size permits, and requests the best size.

Both avoid any online exploration of the configuration space, which is the
property the paper emphasises.  Both damp their choice with one rule and
record it as one :class:`ControllerDecision`
(:mod:`repro.core.controllers.damping`).
"""

from repro.core.controllers.params import AdaptiveControlParams
from repro.core.controllers.damping import ControllerDecision
from repro.core.controllers.cache_controller import (
    CacheLevel,
    PhaseAdaptiveCacheController,
)
from repro.core.controllers.queue_controller import (
    ILPTracker,
    PhaseAdaptiveQueueController,
)

__all__ = [
    "AdaptiveControlParams",
    "CacheLevel",
    "ControllerDecision",
    "PhaseAdaptiveCacheController",
    "ILPTracker",
    "PhaseAdaptiveQueueController",
]
