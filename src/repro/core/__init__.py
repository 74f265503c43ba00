"""The paper's contribution: the adaptive MCD (GALS) processor.

This package ties the substrates together into the four-domain adaptive
processor of the paper — independently clocked front-end, integer,
floating-point and load/store domains with resizable structures — plus the
hardware control algorithms that pick a configuration per program phase, and
the machine specifications used by the whole-program (Program-Adaptive) and
fully synchronous experiments.
"""

from repro.core.domains import Domain
from repro.core.synchronization import SynchronizationModel, SynchronizationStats
from repro.core.pll import PLLModel
from repro.core.configuration import (
    ArchitecturalParameters,
    AdaptiveConfigIndices,
    MachineSpec,
    MachineStyle,
    adaptive_mcd_spec,
    base_adaptive_spec,
    best_overall_synchronous_spec,
    synchronous_spec,
)
from repro.core.controllers import (
    AdaptiveControlParams,
    ControllerDecision,
    ILPTracker,
    PhaseAdaptiveCacheController,
    PhaseAdaptiveQueueController,
)
from repro.core.processor import MCDProcessor

__all__ = [
    "Domain",
    "SynchronizationModel",
    "SynchronizationStats",
    "PLLModel",
    "ArchitecturalParameters",
    "AdaptiveConfigIndices",
    "MachineSpec",
    "MachineStyle",
    "adaptive_mcd_spec",
    "base_adaptive_spec",
    "best_overall_synchronous_spec",
    "synchronous_spec",
    "AdaptiveControlParams",
    "ControllerDecision",
    "ILPTracker",
    "PhaseAdaptiveCacheController",
    "PhaseAdaptiveQueueController",
    "MCDProcessor",
]
