"""Analysis layer: run records, design-space sweeps, report tables and the
hardware-cost model for the controller circuitry."""

from repro.analysis.metrics import (
    ConfigurationChange,
    RunResult,
    relative_improvement,
)
from repro.analysis.reporting import energy_table, format_table, improvement_table

# The sweep and sensitivity modules depend on repro.core (which itself uses
# repro.analysis.metrics), so they are imported lazily to keep the package
# import-order independent.  hardware_cost is lazy for a different reason:
# it doubles as ``python -m repro.analysis.hardware_cost``, and an eager
# import here would leave runpy re-executing an already-imported module.
_HARDWARE_COST_EXPORTS = {
    "HardwareComponent",
    "phase_adaptive_cache_hardware",
    "total_equivalent_gates",
    "ilp_tracker_storage_bits",
}
_SENSITIVITY_EXPORTS = {
    "SensitivityPoint",
    "SensitivityReport",
    "WorkloadSensitivity",
    "sensitivity_sweep",
}

_SWEEP_EXPORTS = {
    "SweepResult",
    "WorkloadComparison",
    "average_improvements",
    "program_adaptive_search",
    "run_phase_adaptive",
    "run_program_adaptive",
    "run_synchronous",
    "compare_workload",
    "compare_workloads",
}


def __getattr__(name):
    if name in _SWEEP_EXPORTS:
        from repro.analysis import sweep

        return getattr(sweep, name)
    if name in _SENSITIVITY_EXPORTS:
        from repro.analysis import sensitivity

        return getattr(sensitivity, name)
    if name in _HARDWARE_COST_EXPORTS:
        from repro.analysis import hardware_cost

        return getattr(hardware_cost, name)
    raise AttributeError(f"module 'repro.analysis' has no attribute {name!r}")

__all__ = [
    "ConfigurationChange",
    "RunResult",
    "relative_improvement",
    "HardwareComponent",
    "phase_adaptive_cache_hardware",
    "total_equivalent_gates",
    "ilp_tracker_storage_bits",
    "SensitivityPoint",
    "SensitivityReport",
    "WorkloadSensitivity",
    "sensitivity_sweep",
    "SweepResult",
    "WorkloadComparison",
    "program_adaptive_search",
    "run_phase_adaptive",
    "run_program_adaptive",
    "run_synchronous",
    "compare_workload",
    "compare_workloads",
    "energy_table",
    "format_table",
    "improvement_table",
]
