"""Hardware-cost model for the adaptive control circuitry (Table 4).

The paper estimates the dedicated hardware needed by the phase-adaptive cache
controller at roughly 4 650 equivalent gates per adaptable cache (or cache
pair) — about 10 K gates in total for the two controllers — plus a few
hundred bits of timestamp storage for the ILP tracker.  This module rebuilds
that estimate from the same component inventory;
``python -m repro.analysis.hardware_cost`` prints it as Table 4.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.registers import TOTAL_LOGICAL_REGS

#: Equivalent-gate costs per bit for the primitive circuits used in Table 4,
#: following Zimmermann's component estimates cited by the paper.
GATES_PER_BIT = {
    "half_adder": 3,
    "full_adder": 7,
    "d_flip_flop": 4,
    "multiplier_cell": 1,
    "comparator": 6,
}


@dataclass(frozen=True, slots=True)
class HardwareComponent:
    """One row of Table 4."""

    name: str
    count: int
    width_bits: int
    gates_per_bit: int
    formula: str

    @property
    def equivalent_gates(self) -> int:
        """Total equivalent gates for all instances of the component."""
        return self.count * self.width_bits * self.gates_per_bit


def phase_adaptive_cache_hardware() -> tuple[HardwareComponent, ...]:
    """The component inventory of one phase-adaptive cache controller.

    Matches Table 4 of the paper: 24 counters and 11 adders sized for 15-bit
    interval counts, two bit-serial 8x28 multipliers producing 36-bit
    partial results, a final 36-bit adder, a result register and a
    comparator.
    """
    return (
        HardwareComponent(
            name="MRU and hit counters (15-bit)",
            count=24,
            width_bits=15,
            gates_per_bit=GATES_PER_BIT["half_adder"] + GATES_PER_BIT["d_flip_flop"],
            formula="3n (half-adder) + 4n (D flip-flop)",
        ),
        HardwareComponent(
            name="Adders (15-bit)",
            count=11,
            width_bits=15,
            gates_per_bit=GATES_PER_BIT["full_adder"],
            formula="7n (full-adder)",
        ),
        HardwareComponent(
            name="8x28-bit multipliers (36-bit result)",
            count=2,
            width_bits=36,
            gates_per_bit=GATES_PER_BIT["multiplier_cell"] + GATES_PER_BIT["d_flip_flop"],
            formula="1n (multiplier) + 4n (D flip-flop)",
        ),
        HardwareComponent(
            name="Final adder (36-bit)",
            count=1,
            width_bits=36,
            gates_per_bit=GATES_PER_BIT["full_adder"],
            formula="7n (full-adder)",
        ),
        HardwareComponent(
            name="Result register (36-bit)",
            count=1,
            width_bits=36,
            gates_per_bit=GATES_PER_BIT["d_flip_flop"],
            formula="4n (D flip-flop)",
        ),
        HardwareComponent(
            name="Comparator (36-bit)",
            count=1,
            width_bits=36,
            gates_per_bit=GATES_PER_BIT["comparator"],
            formula="6n (comparator)",
        ),
    )


def total_equivalent_gates(components: tuple[HardwareComponent, ...] | None = None) -> int:
    """Total equivalent gates of one controller (Table 4 bottom line)."""
    if components is None:
        components = phase_adaptive_cache_hardware()
    return sum(component.equivalent_gates for component in components)


def ilp_tracker_storage_bits(queue_size: int) -> int:
    """Timestamp storage required by the ILP tracker for one queue size.

    Four bits per logical register for the 16-entry tracker, five for 32 and
    six for 48/64 (Section 3.2), over the 64 logical registers.
    """
    bits_per_register = {16: 4, 32: 5, 48: 6, 64: 6}
    try:
        width = bits_per_register[queue_size]
    except KeyError as exc:
        raise ValueError(f"unsupported queue size {queue_size}") from exc
    return width * TOTAL_LOGICAL_REGS


# ---------------------------------------------------------------------------
# CLI: ``python -m repro.analysis.hardware_cost`` renders Table 4.
# ---------------------------------------------------------------------------


def render_table4() -> str:
    """The Table 4 gate-count table plus the ILP-tracker storage summary."""
    from repro.analysis.reporting import format_table

    components = phase_adaptive_cache_hardware()
    rows: list[tuple[object, ...]] = [
        (
            component.name,
            component.count,
            component.width_bits,
            component.formula,
            component.equivalent_gates,
        )
        for component in components
    ]
    rows.append(("total (one controller)", "", "", "", total_equivalent_gates(components)))
    rows.append(("total (both controllers)", "", "", "", 2 * total_equivalent_gates(components)))
    table = format_table(("component", "count", "bits", "formula", "equiv. gates"), rows)
    tracker_lines = [
        f"ILP tracker storage ({size}-entry queue): "
        f"{ilp_tracker_storage_bits(size)} bits"
        for size in (16, 32, 48, 64)
    ]
    return "\n".join(
        ["Table 4 — phase-adaptive cache controller hardware cost", "", table, ""]
        + tracker_lines
    )


def build_parser() -> "argparse.ArgumentParser":
    """The ``python -m repro.analysis.hardware_cost`` argument parser."""
    import argparse

    return argparse.ArgumentParser(
        prog="python -m repro.analysis.hardware_cost",
        description="Render the adaptive-control hardware-cost table (Table 4).",
    )


def main(argv: object = None) -> int:
    """CLI entry point; prints Table 4 and returns the exit code."""
    build_parser().parse_args(argv)
    print(render_table4())
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the CLI smoke test
    from repro.obs.logging import run_cli

    raise SystemExit(run_cli(main))
