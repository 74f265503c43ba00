"""Python calls per committed instruction in the main loop, bounded per machine class.

Wall-clock time is too noisy to gate in tier-1, but the number of Python
function calls ``MCDProcessor._main_loop`` makes per committed instruction is
deterministic on a given job, and each call is a large share of the
per-instruction cost of this interpreter-bound simulator.  A change that puts
a call back on a per-instruction path (say, one per queue controller or per
tracked queue size at dispatch) fails here; one that removes calls lowers the
bound in the same diff.  The counts agree to within 0.06 across CPython 3.10
to 3.12.
"""

from __future__ import annotations

import gc
import sys

import pytest

from repro.core.processor import MCDProcessor
from repro.engine import SimulationJob, SpecKind, make_trace
from repro.workloads import get_workload

WINDOW = 2_000
WARMUP = 3_000

#: Job options and the bound on calls per committed instruction, which is
#: the measured count rounded up to one decimal.
JOBS = {
    "phase_adaptive_em3d": (
        dict(
            workload="em3d",
            spec_kind=SpecKind.BASE_ADAPTIVE,
            use_b_partitions=True,
            phase_adaptive=True,
        ),
        20.4,
    ),
    "fixed_mcd_gcc": (dict(workload="gcc", spec_kind=SpecKind.ADAPTIVE), 18.8),
    "synchronous_apsi": (dict(workload="apsi", spec_kind=SpecKind.BEST_SYNCHRONOUS), 16.5),
}


def calls_per_committed_instruction(job: SimulationJob) -> float:
    """Python ``call`` events inside ``_main_loop``, per committed instruction."""
    trace = make_trace(job.profile, seed=job.trace_seed)
    # Compile the rows the run reads first (fetch runs ahead of commit), so
    # trace generation is not counted whatever ran earlier in the process.
    trace.compiled.ensure(WARMUP + WINDOW + 1_000)
    processor = MCDProcessor(
        job.build_spec(),
        control=job.resolved_control(),
        phase_adaptive=job.phase_adaptive,
        seed=job.seed,
    )
    main_loop = processor._main_loop
    calls = 0

    def count_calls(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    def counted_main_loop(max_instructions: int) -> None:
        # A cyclic-GC pass would run finalizers of garbage that earlier
        # tests left behind, so collect it first and keep the pass out.
        gc.collect()
        gc.disable()
        sys.setprofile(count_calls)
        try:
            main_loop(max_instructions)
        finally:
            sys.setprofile(None)
            gc.enable()

    processor._main_loop = counted_main_loop
    processor.run(
        trace,
        max_instructions=job.resolved_window(),
        warmup_instructions=job.resolved_warmup(),
        workload_name=job.profile.name,
    )
    return calls / processor.rob.total_committed


@pytest.mark.parametrize("name", sorted(JOBS))
def test_main_loop_calls_per_committed_instruction_within_bound(name):
    options, bound = JOBS[name]
    options = dict(options)
    job = SimulationJob(
        profile=get_workload(options.pop("workload")), window=WINDOW, warmup=WARMUP, **options
    )
    calls = calls_per_committed_instruction(job)
    assert calls <= bound, f"{name}: {calls:.3f} Python calls per committed instruction"
