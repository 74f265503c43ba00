"""The paper's claims about adaptive MCD, one test each at one fixed setting.

Run it by name; tier-1 does not collect it::

    PYTHONPATH=src python -m pytest -q tests/paper_claims.py

The file is named outside pytest's ``test_*.py`` pattern because its Figure 6
sweep alone takes longer than the whole tier-1 suite.  CI runs it as a step
of the ``examples`` job.

The setting is fixed here and read from nowhere else:

* Figure 6 and Table 9: the 16 applications of :data:`FIGURE6_WORKLOADS`,
  window 6 000, each workload's default warm-up and the factored
  Program-Adaptive search, in one sweep that both share;
* Figure 7: window 24 000, default warm-ups;
* the ablations: window 6 000, default warm-ups.

The sweep cannot be shrunk without changing what it measures: with a
20 000-instruction warm-up Program-Adaptive averages +4.8 % instead of
+19.4 %, and no application gains more than 15 %.

Each test's docstring gives the paper's figure and each assertion message
the measured values.  A claim the model misses today is
``xfail(strict=True)`` with its numbers in the reason, so closing the gap
fails the run until the marker goes.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.analysis.sweep import average_improvements, compare_workloads, run_phase_adaptive
from repro.core import AdaptiveConfigIndices, Domain, adaptive_mcd_spec
from repro.engine import SimulationJob, make_engine
from repro.timing.tables import OPTIMAL_DCACHE_CONFIGS, OPTIMIZED_ICACHE_CONFIGS
from repro.workloads import get_workload

# fmt: off
#: Small media kernels, instruction-bound codes, memory-bound codes, FP codes
#: and the strongly phased applications.
FIGURE6_WORKLOADS = (
    "adpcm_encode", "adpcm_decode", "g721_encode", "jpeg_compress",
    "mpeg2_encode", "gsm_encode", "ghostscript", "power",
    "em3d", "health", "bzip2", "gcc", "vortex", "galgel", "apsi", "art",
)
# fmt: on
WINDOW = 6_000
FIGURE7_WINDOW = 24_000


@pytest.fixture(scope="module")
def engine():
    return make_engine(workers="auto")


@pytest.fixture(scope="module")
def figure6(engine):
    """Each workload's Figure 6 comparison, by name."""
    profiles = [get_workload(name) for name in FIGURE6_WORKLOADS]
    comparisons = compare_workloads(profiles, window=WINDOW, engine=engine)
    return {comparison.workload: comparison for comparison in comparisons}


def _percents(values):
    return ", ".join(f"{name} {value * 100:+.2f}%" for name, value in values.items())


def _adaptive_job(workload, indices=None, **overrides):
    return SimulationJob(
        profile=get_workload(workload),
        indices=indices,
        spec_overrides=overrides or None,
        window=WINDOW,
    )


def _slowdowns(engine, pairs):
    """``time(with) / time(without) - 1`` for each ``name: (with, without)`` job pair."""
    results = engine.run_all([job for pair in pairs.values() for job in pair])
    return {
        name: with_cost.execution_time_ps / without_cost.execution_time_ps - 1
        for name, with_cost, without_cost in zip(pairs, results[::2], results[1::2])
    }


def _trace(engine, workload, structure):
    result = run_phase_adaptive(get_workload(workload), window=FIGURE7_WINDOW, engine=engine)
    return [
        (change.committed_instructions, change.configuration)
        for change in result.configuration_changes
        if change.structure == structure
    ]


def test_figure6_program_adaptive_beats_best_synchronous_on_average(figure6):
    """Figure 6: Program-Adaptive averages +17.6 % over the best synchronous machine."""
    program, phase = average_improvements(figure6.values())
    assert program > 0, _percents({"Program-Adaptive": program, "Phase-Adaptive": phase})


def test_figure6_named_large_winners_gain_over_15_percent(figure6):
    """Figure 6: gcc, em3d, mst, art and vortex are the largest winners.

    mst is not among the 16 applications, so it is not asserted.
    """
    gains = {name: figure6[name].program_improvement for name in ("gcc", "em3d", "art", "vortex")}
    assert all(gain > 0.15 for gain in gains.values()), _percents(gains)


@pytest.mark.xfail(
    strict=True,
    reason="Phase-Adaptive averages -3.5 % against Program-Adaptive's +19.4 %",
)
def test_figure6_phase_adaptive_at_least_program_adaptive(figure6):
    """Figure 6: Phase-Adaptive (+20.4 %) beats Program-Adaptive (+17.6 %) on average."""
    program, phase = average_improvements(figure6.values())
    assert phase >= program, _percents({"Program-Adaptive": program, "Phase-Adaptive": phase})


def test_table9_smallest_configuration_is_the_most_common_choice(figure6):
    """Table 9: the smallest configuration is Program-Adaptive's most common
    choice for every structure: the 16-entry integer queue (~85 % of
    applications), the 16-entry FP queue (~73 %), the smallest D/L2 pair
    (~50 %) and the smallest I-cache (~55 %)."""
    chosen = [comparison.program_best_indices for comparison in figure6.values()]
    choices = {
        "int IQ": (16, Counter(indices.int_queue_size for indices in chosen)),
        "FP IQ": (16, Counter(indices.fp_queue_size for indices in chosen)),
        "D/L2": (0, Counter(indices.dcache_index for indices in chosen)),
        "I-cache": (0, Counter(indices.icache_index for indices in chosen)),
    }
    for structure, (smallest, counts) in choices.items():
        others = max((n for choice, n in counts.items() if choice != smallest), default=0)
        assert counts[smallest] > others, f"{structure}: {dict(counts)}"


@pytest.mark.xfail(strict=True, reason="apsi's D/L2 holds 32k1W/256k1W for all six intervals")
def test_figure7a_apsi_dcache_follows_its_phases(engine):
    """Figure 7(a): apsi's D/L2 pair moves between configurations with its
    periodic data-capacity phases."""
    trace = _trace(engine, "apsi", "dcache")
    assert len({configuration for _, configuration in trace}) >= 2, trace


def test_figure7b_art_integer_queue_leaves_16_entries(engine):
    """Figure 7(b): art's integer issue queue grows past 16 entries with its
    periodic ILP phases."""
    trace = _trace(engine, "art", "int-queue")
    assert trace and max(int(configuration) for _, configuration in trace) > 16, trace


def test_synchronisation_costs_under_3_percent_on_average(engine):
    """Section 2, citing the companion MCD work: inter-domain synchronisation
    slows the GALS machine by less than 3 % on average."""
    costs = _slowdowns(
        engine,
        {
            name: (_adaptive_job(name), _adaptive_job(name, inter_domain_sync=False))
            for name in ("g721_encode", "bzip2", "gzip", "power")
        },
    )
    assert sum(costs.values()) / len(costs) < 0.03, _percents(costs)


def test_deeper_mispredict_penalty_costs_time(engine):
    """Section 2: the adaptive machine is over-pipelined at low frequencies and
    pays 10 front-end + 9 integer cycles per misprediction, against the
    synchronous machine's 9 + 7."""
    shallow = {"mispredict_front_end_cycles": 9, "mispredict_integer_cycles": 7}
    costs = _slowdowns(
        engine,
        {
            name: (_adaptive_job(name), _adaptive_job(name, **shallow))
            for name in ("adpcm_decode", "crafty", "vpr", "g721_encode")
        },
    )
    assert all(cost > 0 for cost in costs.values()), _percents(costs)


def _optimal_frequencies(indices):
    """The adaptive machine's clocks with the resized structures clocked as if
    capacity-optimised, that is, without the adaptivity penalty."""
    adaptive = adaptive_mcd_spec(indices, use_b_partitions=False)
    frequencies = dict(adaptive.frequencies_ghz)
    frequencies[Domain.LOAD_STORE] = OPTIMAL_DCACHE_CONFIGS[indices.dcache_index].frequency_ghz
    frequencies[Domain.FRONT_END] = next(
        config.frequency_ghz
        for config in OPTIMIZED_ICACHE_CONFIGS
        if config.size_kb == adaptive.icache.size_kb and config.ways == 1
    )
    return frequencies


def test_resizable_structure_frequency_penalty_costs_time(engine):
    """Figures 2-3: resizable structures replicate the smallest
    configuration's layout, so upsized they clock ~5 % (D/L2) and up to ~27 %
    (64 KB I-cache) below capacity-optimised designs."""
    cases = {
        "em3d": AdaptiveConfigIndices(dcache_index=3),
        "gcc": AdaptiveConfigIndices(icache_index=3, dcache_index=2),
        "vortex": AdaptiveConfigIndices(icache_index=3, dcache_index=2),
    }
    costs = _slowdowns(
        engine,
        {
            name: (
                _adaptive_job(name, indices),
                _adaptive_job(name, indices, frequencies_ghz=_optimal_frequencies(indices)),
            )
            for name, indices in cases.items()
        },
    )
    assert all(cost > 0 for cost in costs.values()), _percents(costs)
