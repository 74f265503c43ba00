"""Shared configuration for the benchmark harness.

The Figure 6 / Table 9 sweep runs once, through the default experiment
engine (:func:`repro.engine.default_engine`), and its comparisons are shared
by every bench that needs them.  The engine's executor and result cache
follow the ``REPRO_ENGINE_*`` variables.

Environment variables scale the heavy experiments:

``REPRO_BENCH_WINDOW``
    Instructions simulated per run (default 6000; the paper simulates
    100 M-200 M — see EXPERIMENTS.md for the scaling discussion).
``REPRO_BENCH_WORKLOADS``
    Comma-separated subset of workload names for the Figure 6 / Table 9
    experiments, or ``all`` for the full 40-entry suite.  The default is a
    16-application representative subset so the harness finishes in a few
    minutes; EXPERIMENTS.md records full-suite numbers.
``REPRO_BENCH_SEARCH``
    ``factored`` (default) or ``exhaustive`` Program-Adaptive search.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.sweep import compare_workloads
from repro.engine import default_engine
from repro.workloads import full_suite, get_workload

#: Representative subset: small media kernels, instruction-bound codes,
#: memory-bound codes, FP codes and the strongly phased applications.
DEFAULT_BENCH_WORKLOADS = (
    "adpcm_encode", "adpcm_decode", "g721_encode", "jpeg_compress",
    "mpeg2_encode", "gsm_encode", "ghostscript", "power",
    "em3d", "health", "bzip2", "gcc", "vortex", "galgel", "apsi", "art",
)


def bench_window() -> int:
    return int(os.environ.get("REPRO_BENCH_WINDOW", "6000"))


def bench_search_mode() -> str:
    return os.environ.get("REPRO_BENCH_SEARCH", "factored")


def bench_workloads():
    names = os.environ.get("REPRO_BENCH_WORKLOADS")
    if names and names.strip().lower() == "all":
        return full_suite()
    if names:
        return tuple(get_workload(name.strip()) for name in names.split(",") if name.strip())
    return tuple(get_workload(name) for name in DEFAULT_BENCH_WORKLOADS)


@pytest.fixture(scope="session")
def figure6_comparisons():
    """Run the three-machine comparison once and share it across benches."""
    return compare_workloads(
        bench_workloads(),
        search_mode=bench_search_mode(),
        window=bench_window(),
        engine=default_engine(),
    )
