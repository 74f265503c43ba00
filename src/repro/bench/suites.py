"""The benchmark suites: fig2, fig6 and the Figure 6 / Table 9 sweep.

Each suite builds the relevant experiment out of the :mod:`repro.engine`
subsystem, times it with a fresh in-memory result cache (so wall-clocks
measure simulation, not cache luck), and returns a fully populated
:class:`~repro.bench.schema.BenchEntry`.

Every suite has a ``--quick`` parameterisation small enough for CI and a
full one for workstation runs; the parameters are recorded in the entry so
the regression checker never compares quick numbers against full ones.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.analysis.sensitivity import (
    FULL_GRIDS,
    QUICK_GRIDS,
    QUICK_WARMUP,
    QUICK_WINDOW,
    sensitivity_sweep,
)
from repro.analysis.sweep import compare_workload, compare_workloads, evaluate_configuration
from repro.bench.environment import EnvironmentFingerprint
from repro.bench.schema import BenchEntry, BenchRun
from repro.bench.timer import calibrate, timed
from repro.core.configuration import AdaptiveConfigIndices
from repro.engine import ExperimentEngine, make_engine
from repro.timing.tables import ADAPTIVE_DCACHE_CONFIGS
from repro.workloads import get_workload

#: Workload subset for the quick sweep: an instruction-bound code, a
#: memory-bound code, a strongly phased application and an FP code.
QUICK_SWEEP_WORKLOADS = ("gcc", "em3d", "adpcm_encode", "apsi")

#: Representative 16-application subset used by the full sweep (matches the
#: benchmark harness's historical default).
FULL_SWEEP_WORKLOADS = (
    "adpcm_encode", "adpcm_decode", "g721_encode", "jpeg_compress",
    "mpeg2_encode", "gsm_encode", "ghostscript", "power",
    "em3d", "health", "bzip2", "gcc", "vortex", "galgel", "apsi", "art",
)


def _fresh_engine(workers: int) -> ExperimentEngine:
    return make_engine(workers=workers, use_cache=True)


def _entry(
    suite: str,
    parameters: dict[str, Any],
    runs: list[BenchRun],
    calibration: float,
) -> BenchEntry:
    for run in runs:
        run.normalized = run.seconds / calibration if calibration > 0 else 0.0
    return BenchEntry(
        suite=suite,
        environment=EnvironmentFingerprint.collect(),
        calibration_seconds=calibration,
        parameters=parameters,
        runs=runs,
    )


def run_fig2_suite(*, quick: bool = False, workers: int = 1) -> BenchEntry:
    """Time the D-cache configuration sweep behind Figure 2 (one workload)."""
    window, warmup = (1_500, 2_500) if quick else (6_000, 20_000)
    profile = get_workload("em3d")
    parameters = {
        "quick": quick,
        "window": window,
        "warmup": warmup,
        "workload": profile.name,
        "configurations": len(ADAPTIVE_DCACHE_CONFIGS),
    }

    engine = _fresh_engine(workers)

    def sweep_dcache() -> None:
        for index in range(len(ADAPTIVE_DCACHE_CONFIGS)):
            evaluate_configuration(
                profile,
                AdaptiveConfigIndices(dcache_index=index),
                window=window,
                warmup=warmup,
                engine=engine,
            )

    calibration = calibrate()
    _, seconds = timed(sweep_dcache)
    runs = [
        BenchRun(
            name="dcache_config_sweep",
            seconds=seconds,
            simulations=engine.stats.simulations,
            cache_hits=engine.stats.cache_hits,
        )
    ]
    return _entry("fig2", parameters, runs, calibration)


def run_fig6_suite(*, quick: bool = False, workers: int = 1) -> BenchEntry:
    """Time one full three-machine Figure 6 comparison (one workload)."""
    window, warmup = (2_000, 3_000) if quick else (8_000, 20_000)
    profile = get_workload("gcc")
    parameters = {
        "quick": quick,
        "window": window,
        "warmup": warmup,
        "workload": profile.name,
        "search_mode": "factored",
    }

    engine = _fresh_engine(workers)
    calibration = calibrate()
    _, seconds = timed(
        compare_workload,
        profile,
        search_mode="factored",
        window=window,
        warmup=warmup,
        engine=engine,
    )
    runs = [
        BenchRun(
            name="three_machine_comparison",
            seconds=seconds,
            simulations=engine.stats.simulations,
            cache_hits=engine.stats.cache_hits,
        )
    ]
    return _entry("fig6", parameters, runs, calibration)


def run_sweep_suite(*, quick: bool = False, workers: int = 1) -> BenchEntry:
    """Time the multi-workload Figure 6 / Table 9 sweep (the headline bench).

    Always times the serial executor (the stable, CI-comparable number); when
    *workers* > 1 a second timed run exercises the parallel executor as well.
    """
    window, warmup = (2_000, 3_000) if quick else (6_000, 20_000)
    names = QUICK_SWEEP_WORKLOADS if quick else FULL_SWEEP_WORKLOADS
    profiles = tuple(get_workload(name) for name in names)
    parameters = {
        "quick": quick,
        "window": window,
        "warmup": warmup,
        "workloads": list(names),
        "search_mode": "factored",
    }

    calibration = calibrate()
    runs: list[BenchRun] = []
    modes: list[tuple[str, int]] = [("serial", 1)]
    if workers > 1:
        modes.append(("parallel", workers))
    reference = None
    for mode, mode_workers in modes:
        engine = _fresh_engine(mode_workers)
        comparisons, seconds = timed(
            compare_workloads,
            profiles,
            search_mode="factored",
            window=window,
            warmup=warmup,
            engine=engine,
        )
        if reference is None:
            reference = comparisons
        elif [c.workload for c in comparisons] != [c.workload for c in reference] or any(
            a.synchronous != b.synchronous for a, b in zip(comparisons, reference)
        ):
            raise AssertionError(f"executor mode {mode!r} produced different sweep results")
        runs.append(
            BenchRun(
                name=f"figure6_sweep_{mode}",
                seconds=seconds,
                simulations=engine.stats.simulations,
                cache_hits=engine.stats.cache_hits,
                extra={"workers": mode_workers},
            )
        )
    return _entry("sweep", parameters, runs, calibration)


#: Workload subset for the energy suite: an instruction-bound code and a
#: memory-bound one (quick); the quick sweep set (full).
QUICK_ENERGY_WORKLOADS = ("gcc", "em3d")
FULL_ENERGY_WORKLOADS = QUICK_SWEEP_WORKLOADS


def run_energy_suite(*, quick: bool = False, workers: int = 1) -> BenchEntry:
    """Time the energy view of the Figure 6 comparison.

    Runs the three-machine comparison per workload and computes every
    machine's :class:`~repro.energy.EnergyReport` plus the comparative
    energy / ED / ED^2 columns, so the suite guards both the simulation path
    with activity counting enabled and the energy model's arithmetic.
    """
    from repro.analysis.reporting import energy_table

    window, warmup = (1_500, 2_500) if quick else (6_000, 20_000)
    names = QUICK_ENERGY_WORKLOADS if quick else FULL_ENERGY_WORKLOADS
    profiles = tuple(get_workload(name) for name in names)
    parameters = {
        "quick": quick,
        "window": window,
        "warmup": warmup,
        "workloads": list(names),
        "search_mode": "factored",
    }

    engine = _fresh_engine(workers)
    calibration = calibrate()

    def energy_sweep() -> str:
        rows = compare_workloads(
            profiles,
            search_mode="factored",
            window=window,
            warmup=warmup,
            engine=engine,
        )
        # energy_table prices all three machines per row (memoised on the
        # comparison), so the timed work covers simulation + energy model.
        return energy_table(rows)

    _, seconds = timed(energy_sweep)
    runs = [
        BenchRun(
            name="energy_figure6_columns",
            seconds=seconds,
            simulations=engine.stats.simulations,
            cache_hits=engine.stats.cache_hits,
        )
    ]
    return _entry("energy", parameters, runs, calibration)


#: Workload subset for the sensitivity suite: an instruction-bound code and a
#: memory-bound one (quick), plus the two strongly phased applications (full).
QUICK_SENSITIVITY_WORKLOADS = ("gcc", "em3d")
FULL_SENSITIVITY_WORKLOADS = ("gcc", "em3d", "apsi", "art")


def run_sensitivity_suite(*, quick: bool = False, workers: int = 1) -> BenchEntry:
    """Time the timing-uncertainty sensitivity sweep (jitter path included).

    Every grid point carries at least one jittered or knob-perturbed MCD
    simulation, so this suite doubles as the performance guard for the
    jittered work-horizon skip.
    """
    window, warmup = (QUICK_WINDOW, QUICK_WARMUP) if quick else (4_000, 12_000)
    names = QUICK_SENSITIVITY_WORKLOADS if quick else FULL_SENSITIVITY_WORKLOADS
    profiles = tuple(get_workload(name) for name in names)
    grids = dict(QUICK_GRIDS if quick else FULL_GRIDS)
    parameters = {
        "quick": quick,
        "window": window,
        "warmup": warmup,
        "workloads": list(names),
        "search_mode": "factored",
        **{axis: list(values) for axis, values in grids.items()},
    }

    engine = _fresh_engine(workers)
    calibration = calibrate()
    report, seconds = timed(
        sensitivity_sweep,
        profiles,
        window=window,
        warmup=warmup,
        engine=engine,
        **grids,
    )
    runs = [
        BenchRun(
            name="sensitivity_sweep",
            seconds=seconds,
            simulations=engine.stats.simulations,
            cache_hits=engine.stats.cache_hits,
            extra={"grid_points": len(report.points)},
        )
    ]
    return _entry("sensitivity", parameters, runs, calibration)


#: Scenario subset for the scenarios suite: a controller-adversarial
#: capacity wave and a queue-tracking stressor (quick); a spread over all
#: four scenario families (full).
QUICK_SCENARIO_NAMES = ("adv-period-1x-interval", "adv-hysteresis-outside-queue")
FULL_SCENARIO_NAMES = (
    "arch-pointer-chasing",
    "adv-period-1x-interval",
    "adv-period-4x-interval",
    "adv-hysteresis-outside-queue",
    "paper-apsi-capacity",
    "ramp-capacity-sawtooth",
)

#: Full-size windows of the scenarios suite; the quick window/warmup pair is
#: imported from the campaign CLI so the bench times the same run
#: parameterisation the CI smoke matrix uses (over the smaller
#: QUICK_SCENARIO_NAMES set — the bench guards the hot path, not all 16
#: smoke scenarios).
FULL_SCENARIO_WINDOW, FULL_SCENARIO_WARMUP = (6_000, 12_000)


def run_scenarios_suite(*, quick: bool = False, workers: int = 1) -> BenchEntry:
    """Time a scenario campaign matrix (scenario set x three machine styles).

    Guards the scenario subsystem's end-to-end path: spec materialisation,
    the engine-batched three-machine expansion, and the controller-behaviour
    accounting of the matrix rows.
    """
    from repro.scenarios import get_scenario, run_campaign
    from repro.scenarios.cli import (
        QUICK_WARMUP as QUICK_SCENARIO_WARMUP,
        QUICK_WINDOW as QUICK_SCENARIO_WINDOW,
    )

    window, warmup = (
        (QUICK_SCENARIO_WINDOW, QUICK_SCENARIO_WARMUP)
        if quick
        else (FULL_SCENARIO_WINDOW, FULL_SCENARIO_WARMUP)
    )
    names = QUICK_SCENARIO_NAMES if quick else FULL_SCENARIO_NAMES
    scenarios = [get_scenario(name) for name in names]
    parameters = {
        "quick": quick,
        "window": window,
        "warmup": warmup,
        "scenarios": list(names),
        "search_mode": "factored",
    }

    engine = _fresh_engine(workers)
    calibration = calibrate()
    result, seconds = timed(
        run_campaign,
        scenarios,
        search_mode="factored",
        window=window,
        warmup=warmup,
        engine=engine,
    )
    runs = [
        BenchRun(
            name="scenario_campaign_matrix",
            seconds=seconds,
            simulations=engine.stats.simulations,
            cache_hits=engine.stats.cache_hits,
            extra={"rows": len(result.rows)},
        )
    ]
    return _entry("scenarios", parameters, runs, calibration)


def run_fabric_suite(*, quick: bool = False, workers: int = 1) -> BenchEntry:
    """Time the distributed campaign fabric end to end.

    Shards a campaign's planned job list across two simulated workers with
    private disk caches, merges the worker stores, then resumes the campaign
    against the merged store — the exact shard → merge → resume workflow
    ``docs/OPERATIONS.md`` prescribes.  Guards the fabric's overheads on top
    of raw simulation: fingerprint sharding, versioned cache writes, merge
    validation, and the cached resume pass that should be dominated by disk
    reads rather than simulation.
    """
    import tempfile
    from pathlib import Path

    from repro.engine import ResultCache, parse_shard, run_shard
    from repro.scenarios import campaign_jobs, get_scenario, run_campaign
    from repro.scenarios.cli import (
        QUICK_WARMUP as QUICK_SCENARIO_WARMUP,
        QUICK_WINDOW as QUICK_SCENARIO_WINDOW,
    )

    window, warmup = (
        (QUICK_SCENARIO_WINDOW, QUICK_SCENARIO_WARMUP)
        if quick
        else (FULL_SCENARIO_WINDOW, FULL_SCENARIO_WARMUP)
    )
    names = QUICK_SCENARIO_NAMES
    scenarios = [get_scenario(name) for name in names]
    shard_count = 2
    parameters = {
        "quick": quick,
        "window": window,
        "warmup": warmup,
        "scenarios": list(names),
        "search_mode": "factored",
        "shards": shard_count,
    }

    calibration = calibrate()
    runs: list[BenchRun] = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-fabric-") as tmp:
        root = Path(tmp)
        jobs = campaign_jobs(scenarios, search_mode="factored", window=window, warmup=warmup)

        def _run_workers() -> int:
            simulated = 0
            for index in range(shard_count):
                engine = make_engine(workers=workers, cache_dir=root / f"shard{index}")
                report = run_shard(jobs, parse_shard(f"{index}/{shard_count}"), engine)
                simulated += report.simulations
            return simulated

        simulated, seconds = timed(_run_workers)
        runs.append(
            BenchRun(
                name="shard_workers",
                seconds=seconds,
                simulations=simulated,
                extra={"jobs_planned": len(jobs), "shards": shard_count},
            )
        )

        merged = ResultCache(root / "merged")

        def _merge() -> int:
            return sum(merged.merge(root / f"shard{index}").merged for index in range(shard_count))

        entries_merged, seconds = timed(_merge)
        runs.append(
            BenchRun(
                name="merge",
                seconds=seconds,
                extra={"entries_merged": entries_merged},
            )
        )

        engine = make_engine(workers=workers, cache_dir=root / "merged")
        result, seconds = timed(
            run_campaign,
            scenarios,
            search_mode="factored",
            window=window,
            warmup=warmup,
            engine=engine,
        )
        runs.append(
            BenchRun(
                name="resume_campaign",
                seconds=seconds,
                simulations=engine.stats.simulations,
                cache_hits=engine.stats.cache_hits,
                extra={"rows": len(result.rows)},
            )
        )
    return _entry("fabric", parameters, runs, calibration)


#: Registry of available suites.
SUITES: dict[str, Callable[..., BenchEntry]] = {
    "energy": run_energy_suite,
    "fabric": run_fabric_suite,
    "fig2": run_fig2_suite,
    "fig6": run_fig6_suite,
    "scenarios": run_scenarios_suite,
    "sweep": run_sweep_suite,
    "sensitivity": run_sensitivity_suite,
}


def run_suite(name: str, *, quick: bool = False, workers: int = 1) -> BenchEntry:
    """Run one registered suite by name."""
    try:
        suite = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown bench suite {name!r}; available: {sorted(SUITES)}")
    return suite(quick=quick, workers=workers)
