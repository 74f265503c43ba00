"""Golden pins of the synthetic trace columns.

Every (profile, trace seed) case compiles a prefix of its trace and compares
the sha256 of each of the eight columns with the value pinned in
``trace_columns.json``, so a generator change fails as a named column of a
named workload.  The 32-bit ``pc``, ``address`` and ``target`` columns are
hashed as 64-bit values, the width they were first pinned at, so a pin
shows that the values, not only their layout, stayed the same.  The cases
cover every suite profile, every library scenario and every archetype
builder at trace seeds 1234 and 1335 (the trace seeds of perfbench's
``--seed 0`` and its held-out ``--seed 101``).  At seed 1234 a phased
profile is compiled past its first phase boundary.

A declared modelling change to the trace re-pins these in the same diff, as
it does the golden digests; run as a script to print the current pins::

    PYTHONPATH=src python tests/test_trace_columns.py > tests/trace_columns.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from array import array
from pathlib import Path

import pytest

from repro.scenarios import get_scenario, scenario_names
from repro.scenarios.archetypes import ARCHETYPES
from repro.scenarios.spec import ScenarioSpec
from repro.workloads import WorkloadProfile, full_suite
from repro.workloads.trace_cache import cached_trace, clear_trace_cache

PINS = Path(__file__).with_name("trace_columns.json")
COLUMNS = ("pc", "op", "flags", "dest", "src0", "src1", "address", "target")
#: Typecode each column is hashed at: the address columns at 64 bits.
HASHED_TYPECODES = {"pc": "Q", "address": "Q", "target": "Q"}
TRACE_SEEDS = (1234, 1335)
#: Rows compiled per case; phased profiles at seed 1234 run this far past
#: the end of their first phase.
ROWS = 2_048


def trace_profiles() -> list[WorkloadProfile]:
    """Suite profiles, library scenarios and one profile per archetype builder."""
    archetypes = [
        ScenarioSpec(
            name=f"archetype-{kind}",
            family="archetype",
            description="trace column pin",
            overrides=build(),
        ).build_profile()
        for kind, build in sorted(ARCHETYPES.items())
    ]
    scenarios = [get_scenario(name).build_profile() for name in scenario_names()]
    return [*full_suite(), *scenarios, *archetypes]


def case_rows(profile: WorkloadProfile, seed: int) -> int:
    if seed == TRACE_SEEDS[0] and profile.phases:
        return profile.phases[0].length + ROWS
    return ROWS


def column_digests(profile: WorkloadProfile, seed: int) -> dict[str, str]:
    """sha256 of each compiled column (little-endian bytes, address columns
    widened to 64 bits) of one case."""
    clear_trace_cache()
    try:
        compiled = cached_trace(profile, seed=seed).compiled
        rows = case_rows(profile, seed)
        assert compiled.ensure(rows) == rows
        digests = {}
        for name in COLUMNS:
            values = getattr(compiled, name)
            column = array(HASHED_TYPECODES.get(name, values.typecode), values)
            if sys.byteorder == "big":
                column.byteswap()
            digests[name] = hashlib.sha256(column.tobytes()).hexdigest()
        return digests
    finally:
        clear_trace_cache()


CASES = [(profile, seed) for profile in trace_profiles() for seed in TRACE_SEEDS]


@pytest.fixture(scope="module")
def pins() -> dict[str, dict[str, str]]:
    return json.loads(PINS.read_text())


def test_every_case_is_pinned(pins):
    assert sorted(pins) == sorted(f"{p.name}@{seed}" for p, seed in CASES)


@pytest.mark.parametrize(("profile", "seed"), CASES, ids=[f"{p.name}@{seed}" for p, seed in CASES])
def test_trace_columns_match_pins(pins, profile, seed):
    pinned = pins[f"{profile.name}@{seed}"]
    digests = column_digests(profile, seed)
    changed = [name for name in COLUMNS if digests[name] != pinned[name]]
    assert not changed, f"{profile.name}@{seed}: columns {changed} differ from the pins"


if __name__ == "__main__":
    json.dump(
        {f"{p.name}@{seed}": column_digests(p, seed) for p, seed in CASES},
        sys.stdout,
        indent=1,
        sort_keys=True,
    )
    print()
