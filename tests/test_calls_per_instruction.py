"""Python calls per unit of simulated work, bounded per machine class.

Wall-clock time is too noisy to gate in tier-1, but the number of Python
function calls a stage makes per unit of work is deterministic on a given
job, and each call is a large share of the cost of this interpreter-bound
simulator.  Two stages are counted:

* ``MCDProcessor._main_loop``, per committed instruction.  A change that puts
  a call back on a per-instruction path (say, one per queue controller or
  per tracked queue size at dispatch) fails here.  The jittered job runs
  twice and its second run is counted, when the process's edge tables hold
  every edge it reads: a change that evaluates a jittered step per edge
  again (73.4 calls per committed instruction before the tables) fails
  here too.
* ``MCDProcessor._warm_up``, per warm-up row.  Warm-up makes one pass per
  structure, so its only per-row calls are the predictor's and the BTB's on
  branch rows; a change that sends rows through a per-row method again (the
  measured run's cache hierarchy, say) fails here.

A change that removes calls lowers the bounds in the same diff.  The
main-loop counts agree to within 0.04 across CPython 3.10 to 3.13.
"""

from __future__ import annotations

import functools
import gc
import sys

import pytest

from repro.core.processor import MCDProcessor
from repro.engine import SimulationJob, SpecKind, make_trace
from repro.workloads import get_workload

WINDOW = 2_000
WARMUP = 3_000

#: Job options and the bounds on main-loop calls per committed instruction
#: and on warm-up calls per warm-up row, each the measured count rounded up
#: to one decimal.
JOBS = {
    "phase_adaptive_em3d": (
        dict(
            workload="em3d",
            spec_kind=SpecKind.BASE_ADAPTIVE,
            use_b_partitions=True,
            phase_adaptive=True,
        ),
        14.7,
        0.2,
    ),
    "fixed_mcd_gcc": (dict(workload="gcc", spec_kind=SpecKind.ADAPTIVE), 14.1, 0.2),
    "phase_adaptive_jittered_gcc": (
        dict(
            workload="gcc",
            spec_kind=SpecKind.BASE_ADAPTIVE,
            use_b_partitions=True,
            phase_adaptive=True,
            jitter_fraction=0.05,
        ),
        17.1,
        0.2,
    ),
    "synchronous_apsi": (
        dict(workload="apsi", spec_kind=SpecKind.BEST_SYNCHRONOUS),
        11.4,
        0.2,
    ),
}


def counted(stage, calls: dict[str, int], name: str):
    """*stage*, with the Python ``call`` events inside it added to ``calls[name]``."""

    def count_calls(frame, event, arg):
        if event == "call":
            calls[name] += 1

    def run(*args):
        # A cyclic-GC pass would run finalizers of garbage that earlier
        # tests left behind, so collect it first and keep the pass out.
        gc.collect()
        gc.disable()
        sys.setprofile(count_calls)
        try:
            return stage(*args)
        finally:
            sys.setprofile(None)
            gc.enable()

    return run


@functools.cache
def calls_per_unit(name: str) -> tuple[float, float]:
    """Main-loop calls per committed instruction and warm-up calls per
    warm-up row of the job *name*."""
    options = dict(JOBS[name][0])
    job = SimulationJob(
        profile=get_workload(options.pop("workload")), window=WINDOW, warmup=WARMUP, **options
    )
    trace = make_trace(job.profile, seed=job.trace_seed)
    # Compile the rows the run reads first (fetch runs ahead of commit), so
    # trace generation is not counted whatever ran earlier in the process.
    trace.ensure(WARMUP + WINDOW + 1_000)
    # A jittered job is counted on its second run, when the process's
    # tables hold every edge it reads, so only the per-edge reads count.
    for run in range(2 if job.jitter_fraction else 1):
        processor = MCDProcessor(
            job.build_spec(),
            control=job.resolved_control(),
            phase_adaptive=job.phase_adaptive,
            seed=job.seed,
            jitter_fraction=job.jitter_fraction,
        )
        calls = {"main_loop": 0, "warm_up": 0}
        processor._main_loop = counted(processor._main_loop, calls, "main_loop")
        processor._warm_up = counted(processor._warm_up, calls, "warm_up")
        processor.run(
            trace,
            max_instructions=job.resolved_window(),
            warmup_instructions=job.resolved_warmup(),
            workload_name=job.profile.name,
        )
    return (
        calls["main_loop"] / processor.rob.total_committed,
        calls["warm_up"] / job.resolved_warmup(),
    )


@pytest.mark.parametrize("name", sorted(JOBS))
def test_main_loop_calls_per_committed_instruction_within_bound(name):
    calls, _ = calls_per_unit(name)
    bound = JOBS[name][1]
    assert calls <= bound, f"{name}: {calls:.3f} Python calls per committed instruction"


@pytest.mark.parametrize("name", sorted(JOBS))
def test_warm_up_calls_per_row_within_bound(name):
    _, calls = calls_per_unit(name)
    bound = JOBS[name][2]
    assert calls <= bound, f"{name}: {calls:.3f} Python calls per warm-up row"
