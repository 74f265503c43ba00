"""Print Figure 7's reconfiguration traces: configurations over time.

In the paper, ``apsi``'s D/L2 pair oscillates between the smallest and a
larger configuration with the data-cache phases of the program, and
``art``'s integer issue queue follows the ILP of its phases.  This example
runs both workloads on the phase-adaptive machine and prints a text
timeline of the configurations the hardware controllers choose.  In this
model art's integer queue does leave 16 entries, but at the default window
of 24 000 apsi's D/L2 stays at 32k1W/256k1W for all six intervals: the
cache controller's cost model does not charge misses the B-partition probes
they pay (ROADMAP item 1).

Usage::

    python examples/phase_reconfiguration_traces.py [window]
"""

from __future__ import annotations

import sys

from repro.analysis import run_phase_adaptive
from repro.workloads import get_workload


def print_trace(workload_name: str, structure: str, window: int) -> None:
    profile = get_workload(workload_name)
    result = run_phase_adaptive(profile, window=window)
    print(f"\n{workload_name}: {structure} configuration over time")
    print("-" * 60)
    previous = None
    for change in result.configuration_changes:
        if change.structure != structure:
            continue
        marker = "  " if change.configuration == previous else "->"
        print(
            f"  {marker} {change.committed_instructions:>8} instructions   "
            f"{change.configuration}"
        )
        previous = change.configuration
    print(f"  ({len(result.configuration_changes)} controller decisions recorded)")


def main() -> None:
    window = int(sys.argv[1]) if len(sys.argv) > 1 else 24_000
    # Figure 7(a): apsi's D/L2 capacity phases.
    print_trace("apsi", "dcache", window)
    # Figure 7(b): art's issue-queue ILP phases.
    print_trace("art", "int-queue", window)


if __name__ == "__main__":
    main()
