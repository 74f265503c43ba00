"""Golden-value helpers: stable digests of representative RunResults.

The hot-path optimisation work (edge scheduling, fast-forward, precomputed
dispatch tables, trace memoisation) must be *bit-identical*: the digest of a
``RunResult`` for a fixed (workload, machine, seed, window) must never change
unless the simulator's modelling intentionally changes.  This module defines
the representative job set; the digest functions and the field partition
behind them live in :mod:`repro.analysis.digests` (re-exported here), and
``tests/test_fingerprint_schema.py`` pins each field's class.  The recorded
golden values live in ``tests/test_golden_values.py``.

Run as a script to print the current digests::

    PYTHONPATH=src python tests/golden_digests.py
"""

from __future__ import annotations

from repro.analysis.digests import (
    FAST_PATH_OBSERVABILITY_FIELDS,
    TIMING_DIGEST_FIELDS,
    energy_digest,
    result_digest,
)
from repro.engine import SimulationJob, SpecKind, run_job
from repro.scenarios import get_scenario
from repro.workloads import get_workload

__all__ = [
    "ENERGY_GOLDEN_DIGESTS",
    "ENERGY_GOLDEN_JOBS",
    "FAST_PATH_OBSERVABILITY_FIELDS",
    "TIMING_DIGEST_FIELDS",
    "compute_digests",
    "compute_energy_digests",
    "energy_digest",
    "golden_jobs",
    "result_digest",
]


def golden_jobs() -> dict[str, SimulationJob]:
    """Small, fast, representative jobs covering the three machine styles."""
    gcc = get_workload("gcc")
    em3d = get_workload("em3d")
    return {
        "gcc/synchronous": SimulationJob(
            profile=gcc,
            spec_kind=SpecKind.BEST_SYNCHRONOUS,
            window=1_500,
            warmup=1_000,
        ),
        "gcc/program_adaptive": SimulationJob(
            profile=gcc,
            spec_kind=SpecKind.ADAPTIVE,
            use_b_partitions=False,
            window=1_500,
            warmup=1_000,
        ),
        "gcc/phase_adaptive": SimulationJob(
            profile=gcc,
            spec_kind=SpecKind.BASE_ADAPTIVE,
            use_b_partitions=True,
            phase_adaptive=True,
            window=1_500,
            warmup=1_000,
        ),
        "em3d/synchronous": SimulationJob(
            profile=em3d,
            spec_kind=SpecKind.BEST_SYNCHRONOUS,
            window=1_500,
            warmup=1_000,
        ),
        "em3d/phase_adaptive": SimulationJob(
            profile=em3d,
            spec_kind=SpecKind.BASE_ADAPTIVE,
            use_b_partitions=True,
            phase_adaptive=True,
            window=1_500,
            warmup=1_000,
        ),
        # Jittered configurations, pinning the timing-uncertainty path (the
        # index-addressable jitter stream, true-edge synchronisation and the
        # jittered fast-forward) exactly like the jitter-free path.
        "gcc/phase_adaptive_jittered": SimulationJob(
            profile=gcc,
            spec_kind=SpecKind.BASE_ADAPTIVE,
            use_b_partitions=True,
            phase_adaptive=True,
            window=1_500,
            warmup=1_000,
            jitter_fraction=0.05,
        ),
        "em3d/program_adaptive_jittered_wide_window": SimulationJob(
            profile=em3d,
            spec_kind=SpecKind.ADAPTIVE,
            use_b_partitions=False,
            window=1_500,
            warmup=1_000,
            jitter_fraction=0.10,
            sync_window_fraction=0.45,
        ),
        # A frequency change on a jittered clock, which no job above makes:
        # the fp-queue controller fires one reconfiguration, so the PLL
        # re-locks a jittered domain mid-run.
        "apsi-capacity/phase_adaptive_jittered_reconfig": SimulationJob(
            profile=get_scenario("paper-apsi-capacity").build_profile(),
            spec_kind=SpecKind.ADAPTIVE,
            phase_adaptive=True,
            window=3_000,
            warmup=2_000,
            jitter_fraction=0.05,
        ),
    }


#: Pinned energy digests of representative golden jobs, one per machine
#: style.  Recorded when the energy-accounting subsystem landed; any
#: divergence means either an activity counter or the energy model's
#: arithmetic changed, which must be intentional and declared.
ENERGY_GOLDEN_DIGESTS = {
    "gcc/phase_adaptive": "6cee7c3ee979d668a69426f8fa20228d2df058fb8e2c720b54d84bec736c4abf",
    "em3d/synchronous": "5fba102f38add920154310b79f23947b6203657b452a2769fd005224375b770d",
    "gcc/program_adaptive": "3b4d88e9f8a76f6c0774554614685f446a7e7c555ad54c35c9499f3ce5f0dc5d",
}

#: Golden jobs whose energy digests are pinned (see test_golden_values.py).
ENERGY_GOLDEN_JOBS = tuple(ENERGY_GOLDEN_DIGESTS)


def compute_digests() -> dict[str, str]:
    """Simulate every golden job and return its timing digest."""
    return {name: result_digest(run_job(job)) for name, job in golden_jobs().items()}


def compute_energy_digests() -> dict[str, str]:
    """Simulate the energy golden jobs and return their energy digests."""
    jobs = golden_jobs()
    return {name: energy_digest(run_job(jobs[name])) for name in ENERGY_GOLDEN_JOBS}


if __name__ == "__main__":
    for name, digest in compute_digests().items():
        print(f'    "{name}": "{digest}",')
    print("energy:")
    for name, digest in compute_energy_digests().items():
        print(f'    "{name}": "{digest}",')
