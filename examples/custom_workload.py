"""Define a custom phased workload and list the controllers' decisions.

This example builds a workload that alternates between a cache-friendly,
high-ILP phase and a memory-hungry, serial phase, runs it on the
phase-adaptive MCD machine, and prints every configuration change the
Accounting-Cache controller and the ILP-tracking queue controllers make.
With today's controllers only the issue queues move: the D/L2 pair stays in
its base 32k1W/256k1W configuration through the 512 KB memory phases, because
the controller's cost model does not charge misses the B-partition probes
they pay (ROADMAP item 1).

Usage::

    python examples/custom_workload.py
"""

from __future__ import annotations

from repro.analysis import run_phase_adaptive, run_synchronous
from repro.core import base_adaptive_spec
from repro.workloads import PhaseSpec, WorkloadProfile


def build_profile() -> WorkloadProfile:
    compute_phase = PhaseSpec(
        length=8_000,
        overrides={
            "hot_data_kb": 8.0,
            "hot_data_fraction": 0.97,
            "mean_dependence_distance": 30.0,
            "far_dependence_fraction": 0.35,
        },
    )
    memory_phase = PhaseSpec(
        length=8_000,
        overrides={
            "hot_data_kb": 512.0,
            "hot_data_fraction": 0.85,
            "sequential_fraction": 0.4,
            "mean_dependence_distance": 6.0,
        },
    )
    return WorkloadProfile(
        name="custom-alternating",
        suite="examples",
        description="alternating compute-bound and memory-bound phases",
        code_footprint_kb=8.0,
        inner_window_kb=4.0,
        data_footprint_kb=768.0,
        hot_data_kb=8.0,
        fp_fraction=0.2,
        phases=(compute_phase, memory_phase),
        simulation_window=32_000,
    )


def main() -> None:
    profile = build_profile()
    print(f"running {profile.name}: {profile.description}")

    baseline = run_synchronous(profile)
    adaptive = run_phase_adaptive(profile)

    print(f"\nfully synchronous: {baseline.execution_time_us:8.2f} us "
          f"(IPC {baseline.front_end_ipc:.2f})")
    print(f"phase-adaptive:    {adaptive.execution_time_us:8.2f} us "
          f"(IPC {adaptive.front_end_ipc:.2f})")
    print(f"improvement:       {adaptive.improvement_over(baseline) * 100:+.1f}%")

    print("\ncontroller decisions (changes only):")
    # Every phase-adaptive run starts in the base configuration, so a
    # decision that keeps it is not a change.
    start = base_adaptive_spec()
    last = {
        "dcache": start.dcache.name,
        "icache": start.icache.name,
        "int-queue": str(start.int_queue_size),
        "fp-queue": str(start.fp_queue_size),
    }
    for change in adaptive.configuration_changes:
        if last.get(change.structure) == change.configuration:
            continue
        last[change.structure] = change.configuration
        print(
            f"  @{change.committed_instructions:>7}: "
            f"{change.structure:10s} -> {change.configuration}"
        )


if __name__ == "__main__":
    main()
