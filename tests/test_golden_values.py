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

from golden_digests import (
    ENERGY_GOLDEN_DIGESTS,
    energy_digest,
    golden_jobs,
    result_digest,
)
from repro.engine import run_job

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
