"""Energy-model parameters: per-event energies, the frequency-voltage table
and leakage constants.

The per-event energies are Wattch-style activity costs at the nominal supply
voltage: every counted event (a queue write, a register-file read, an ALU
operation, one clock edge of one domain's clock tree) contributes its event
energy scaled by ``(V / V_nominal)**2``, where ``V`` is the supply voltage
the frequency-voltage table assigns to the clock frequency the structure's
domain actually ran at.  Clock-tree energy is therefore the paper's
``V**2 * f`` scaling integrated over the run: ``cycles * E_clock *
(V/Vn)**2`` with ``cycles = f * T``.

All energies are in nanojoules; leakage powers in milliwatts.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Frequency-voltage operating points (GHz -> volts), in ascending frequency
#: order.  Linear interpolation between points, clamped at the ends; the
#: shape follows the usual DVS curve where voltage headroom grows with
#: target frequency.
FREQUENCY_VOLTAGE_TABLE_GHZ_V: tuple[tuple[float, float], ...] = (
    (0.50, 0.85),
    (1.00, 0.95),
    (1.25, 1.02),
    (1.50, 1.10),
    (1.75, 1.17),
    (2.00, 1.20),
)

#: Nominal supply voltage the per-event energies are specified at.
NOMINAL_VOLTAGE_V = 1.20


def voltage_for_frequency(frequency_ghz: float) -> float:
    """Supply voltage (V) required to run at *frequency_ghz*.

    Piecewise-linear interpolation over :data:`FREQUENCY_VOLTAGE_TABLE_GHZ_V`,
    clamped to the table's first/last voltage outside its frequency range.
    """
    table = FREQUENCY_VOLTAGE_TABLE_GHZ_V
    if frequency_ghz <= table[0][0]:
        return table[0][1]
    if frequency_ghz >= table[-1][0]:
        return table[-1][1]
    for (f_low, v_low), (f_high, v_high) in zip(table, table[1:]):
        if frequency_ghz <= f_high:
            span = (frequency_ghz - f_low) / (f_high - f_low)
            return v_low + span * (v_high - v_low)
    return table[-1][1]  # pragma: no cover - unreachable by construction


def voltage_scale(frequency_ghz: float) -> float:
    """``(V/Vn)**2`` dynamic-energy scale factor at *frequency_ghz*."""
    ratio = voltage_for_frequency(frequency_ghz) / NOMINAL_VOLTAGE_V
    return ratio * ratio


@dataclass(frozen=True, slots=True)
class EnergyParams:
    """Per-event energies (nJ at nominal voltage) and leakage constants (mW).

    The cache access energies are *not* here: they come from the geometry
    model in :mod:`repro.energy.cacti`, which is what gives each adaptive
    configuration its distinct A-part and A+B access energies.
    """

    # Front end.
    fetch_decode_nj: float = 0.050
    predictor_access_nj: float = 0.055

    # Dispatch / retirement.
    rob_write_nj: float = 0.042
    rob_commit_nj: float = 0.030
    regfile_write_nj: float = 0.048
    regfile_read_nj: float = 0.038

    # Issue queues (CAM-style wakeup, tree select, payload read).
    queue_write_nj: float = 0.034
    queue_wakeup_per_entry_cycle_nj: float = 0.0022
    queue_issue_nj: float = 0.046

    # Load/store queue (allocation write + associative search per access).
    lsq_write_nj: float = 0.030
    lsq_search_nj: float = 0.040

    # Execution.
    alu_op_nj: float = 0.110
    complex_op_nj: float = 0.420

    # Off-chip and inter-domain.
    memory_access_nj: float = 9.0
    sync_transfer_nj: float = 0.006

    # Clock trees: one edge of one domain's clock distribution at nominal V.
    clock_per_domain_cycle_nj: float = 0.080

    # Adaptive-control circuitry: per equivalent gate per clock cycle, and
    # per ILP-tracker storage bit per cycle (Table 4 inventory).
    control_gate_cycle_nj: float = 1.5e-6
    control_storage_bit_cycle_nj: float = 0.4e-6

    # Leakage powers (mW) for the non-cache structures; caches leak per KB
    # via :func:`repro.energy.cacti.cache_leakage_mw`.
    rob_leakage_mw_per_entry: float = 0.0035
    lsq_leakage_mw_per_entry: float = 0.0030
    queue_leakage_mw_per_entry: float = 0.0040
    regfile_leakage_mw_per_entry: float = 0.0028
    predictor_leakage_mw_per_kb: float = 0.0045
    core_leakage_mw: float = 1.8


#: Shared default parameter set.
DEFAULT_ENERGY_PARAMS = EnergyParams()
