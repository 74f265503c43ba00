"""Golden-value regression tests for the simulator's numerical behaviour.

The digests below were recorded from the seed simulator *before* the
hot-path optimisation work (edge scheduling, quiescent-phase fast-forward,
precomputed dispatch tables, trace memoisation).  Any divergence means an
optimisation changed simulated behaviour, which is never allowed: speed
work must be bit-identical.

If a PR intentionally changes the *modelling* (not just the speed), it must
update these values and say so explicitly.

History: the seed code seeded the trace and jitter RNGs with ``hash(name)``,
which is salted per process (PYTHONHASHSEED) — "deterministic" runs silently
differed between interpreter invocations, so no cross-process golden values
could exist.  The optimisation PR replaced those seeds with ``zlib.crc32``
(verified bit-identical to the seed simulator under a pinned hash seed) and
recorded the digests below, which are stable across processes and hosts.
"""

from __future__ import annotations

import pytest

import repro.clocks.clock as clock_module
from golden_digests import (
    ENERGY_GOLDEN_DIGESTS,
    energy_digest,
    golden_jobs,
    result_digest,
)
from repro.clocks.clock import clear_edge_tables
from repro.engine import SimulationJob, SpecKind, run_job
from repro.workloads import get_workload
from test_clocks import recorded_steps

#: sha256 of the canonical JSON serialisation of each golden job's RunResult.
#: The jitter-free digests were recorded from the pre-optimisation simulator;
#: the ``*_jittered*`` digests were recorded when the jitter-correct clock
#: landed (the index-addressable offset stream replaced the stateful RNG,
#: which is an intentional modelling change for jittered runs only — the
#: jitter-free digests did not move) and pin the timing-uncertainty path the
#: same way.  ``apsi-capacity/phase_adaptive_jittered_reconfig`` was recorded
#: before the clock memoised its jittered edges, and pins a frequency change
#: on a jittered clock.
GOLDEN_DIGESTS = {
    "gcc/synchronous": "efbdc3d7065a9e2790b3e670ad11f0ead0da4f5af9e9817dd1b51466dbd686c2",
    "gcc/program_adaptive": "ebfa232fb92aec7af5066a5ea153d5fb53e3ef0d4f46ad58c15a7857c8180654",
    "gcc/phase_adaptive": "bffe939bc27656d5392433658e514b567e40293c5a006757acfe3e6edf891474",
    "em3d/synchronous": "3bebf624cf357354f59a59c46bdcec9cce2eedfe9c67fdfc38152b8564030b49",
    "em3d/phase_adaptive": "dbf359ae27200da9f7041d4237f351a443fb009d97b54122238ef38b2323a6a1",
    "gcc/phase_adaptive_jittered": "8c20b2cbb219fd7abdc9103c55c622ab71ee6269972bcb65c8e1f10fa30c862e",
    "em3d/program_adaptive_jittered_wide_window": "32062bfa9bba2cc895b950377bc1f5a24a1f8c51e1d812685e4f26162fb23fdf",
    "apsi-capacity/phase_adaptive_jittered_reconfig": "b4ae665a7972a94aa36f2c7799e0e68c20f5e2a576144a674dcb6a87397cbc93",
}


#: Phase-adaptive jobs whose cache controllers reconfigure: with no hysteresis
#: margin, gcc's D/L2 goes 0 -> 2 and its I-cache 0 -> 3 -> 2, and mst's D/L2
#: goes 0 -> 2 -> 0, so both the upsizing path (the structure waits for the
#: PLL) and the downsizing path (it switches at once) run.  Each change is
#: ``"committed structure configuration"``; the digest covers its times too.
RECONFIGURATION_PINS = {
    "gcc": (
        "04ea68c70ea68c3f03037be8bdc4a298b73a4dc95e82351eafd39676695390ef",
        ["498 int-queue 48"]
        + [
            f"{committed} {change}"
            for committed in (500, 1_000, 1_500, 2_000, 2_500)
            for change in ("dcache 128k4W/1024k4W", "icache 64k4W")
        ]
        + ["3000 dcache 128k4W/1024k4W", "3000 icache 48k3W"],
    ),
    "mst": (
        "b5362ae90969bab43fa6575fd994c49383fc444cad14cc75c99cd23a40248f91",
        [
            f"{committed} {change}"
            for committed, dcache in (
                (500, "128k4W/1024k4W"),
                (1_000, "128k4W/1024k4W"),
                (1_500, "128k4W/1024k4W"),
                (2_000, "128k4W/1024k4W"),
                (2_500, "32k1W/256k1W"),
                (3_000, "32k1W/256k1W"),
            )
            for change in (f"dcache {dcache}", "icache 16k1W")
        ],
    ),
}


@pytest.mark.parametrize("workload", sorted(RECONFIGURATION_PINS))
def test_cache_reconfigurations_match_their_pins(workload):
    job = SimulationJob(
        profile=get_workload(workload),
        spec_kind=SpecKind.BASE_ADAPTIVE,
        use_b_partitions=True,
        phase_adaptive=True,
        window=3_000,
        control_overrides={"cache_hysteresis": 0.0},
    )
    result = run_job(job)
    digest, changes = RECONFIGURATION_PINS[workload]
    assert [
        f"{change.committed_instructions} {change.structure} {change.configuration}"
        for change in result.configuration_changes
    ] == changes
    assert result_digest(result) == digest


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_run_result_matches_pre_optimisation_golden_digest(name):
    job = golden_jobs()[name]
    assert result_digest(run_job(job)) == GOLDEN_DIGESTS[name], (
        f"RunResult for {name} diverged from the recorded pre-optimisation "
        "behaviour; hot-path changes must be bit-identical"
    )


@pytest.mark.parametrize("name", sorted(ENERGY_GOLDEN_DIGESTS))
def test_energy_accounting_matches_golden_digest(name):
    """Pin the activity counters and the energy model's arithmetic.

    The energy digest covers the post-timing ``RunResult`` fields plus the
    derived :class:`~repro.energy.EnergyReport`; the timing digests above
    separately guarantee that recording this activity never perturbed
    simulated behaviour.
    """
    job = golden_jobs()[name]
    assert energy_digest(run_job(job)) == ENERGY_GOLDEN_DIGESTS[name], (
        f"energy accounting for {name} diverged from the recorded breakdown; "
        "counter or energy-model changes must be intentional and declared"
    )


@pytest.mark.parametrize("name", sorted(name for name in GOLDEN_DIGESTS if "jittered" in name))
def test_jittered_digest_does_not_depend_on_edge_tables(name):
    """A jittered job reads the same edges from cleared tables, from the
    tables its first run left, and after the bound has evicted those."""
    job = golden_jobs()[name]
    clear_edge_tables()
    cold = result_digest(run_job(job))
    tables = set(clock_module._tables)
    with recorded_steps() as evaluated:
        warm = result_digest(run_job(job))
    assert evaluated == []
    for start in range(clock_module.DEFAULT_CACHE_EDGE_TABLES):
        clock_module._edge_table(0, 0.25, 1_000, start)
    assert not tables & set(clock_module._tables)
    evicted = result_digest(run_job(job))
    assert cold == warm == evicted == GOLDEN_DIGESTS[name]
