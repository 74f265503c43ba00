"""Serialization-contract check: the engine's data plane, verified live.

Everything threaded through :class:`SimulationJob`, the process-pool
executors and the persistent :class:`ResultCache` must uphold a contract the
rest of the engine assumes silently:

* **frozen dataclass** where the value participates in fingerprints (a
  mutable job could change identity after being cached);
* **fingerprintable** — ``canonical_payload`` must accept it and produce
  JSON-stable data;
* **pickle round-trip** — executors ship jobs and results across process
  boundaries;
* **dict round-trip** — the disk cache persists via ``to_dict`` and must
  rebuild an *equal* object via ``from_dict`` (losslessness is what lets a
  resumed run serve a stored result as if it had just simulated it).

This rule verifies all of it by import-and-introspect on representative
instances rather than by convention: each contract below names the type, the
obligations it carries, and a cheap example factory exercising non-default
state (mappings, nested dataclasses, observation counters).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, is_dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.checks.findings import Finding
from repro.checks.registry import Rule, register
from repro.checks.source import repo_root

__all__ = ["Contract", "SERIALIZATION_CONTRACT", "contract_registry", "check_contracts"]

SERIALIZATION_CONTRACT = "serialization-contract"


@dataclass(frozen=True, slots=True)
class Contract:
    """Obligations one engine data-plane type must uphold."""

    name: str
    load: Callable[[], type]
    example: Callable[[], Any]
    frozen: bool = True
    fingerprintable: bool = False
    pickle_round_trip: bool = True
    dict_round_trip: bool = False


def _job_types() -> dict[str, Any]:
    # One import site for every contract example; lazy so that importing
    # repro.checks never drags the simulator packages in.
    from repro.analysis.metrics import ConfigurationChange, RunResult
    from repro.core.configuration import AdaptiveConfigIndices, MachineSpec
    from repro.core.controllers.params import AdaptiveControlParams
    from repro.engine.job import SimulationJob
    from repro.scenarios.spec import ScenarioSpec
    from repro.workloads.characteristics import PhaseSpec, WorkloadProfile
    from repro.workloads.suites import get_workload

    return dict(locals())


def _example_profile() -> Any:
    types = _job_types()
    profile = types["get_workload"]("gcc")
    return profile


def _example_phased_profile() -> Any:
    types = _job_types()
    apsi = types["get_workload"]("apsi")
    return apsi


def contract_registry() -> list[Contract]:
    """Every contracted type; extend this list when the data plane grows."""
    types = _job_types()

    def example_job() -> Any:
        return types["SimulationJob"](
            profile=_example_profile(),
            window=2_000,
            warmup=1_000,
            phase_adaptive=True,
            control_overrides={"cache_hysteresis": 0.1},
            jitter_fraction=0.05,
        )

    def example_result() -> Any:
        return types["RunResult"](
            workload="gcc",
            machine="phase_adaptive",
            style="mcd_adaptive",
            committed_instructions=1_000,
            execution_time_ps=123_456,
            domain_cycles={"front_end": 10, "integer": 12},
            final_frequencies_ghz={"front_end": 1.0},
            cache_access_profile={"l1d": {"1": 3, "4": 2}},
            configuration_changes=[
                types["ConfigurationChange"](
                    committed_instructions=500,
                    time_ps=1_000,
                    domain="integer",
                    structure="int_queue",
                    configuration="iq32",
                    index=1,
                )
            ],
            compiled_trace_cache_hits=7,
        )

    return [
        Contract(
            name="repro.engine.job.SimulationJob",
            load=lambda: types["SimulationJob"],
            example=example_job,
            fingerprintable=True,
        ),
        Contract(
            name="repro.workloads.characteristics.WorkloadProfile",
            load=lambda: types["WorkloadProfile"],
            example=_example_phased_profile,
            fingerprintable=True,
            dict_round_trip=True,
        ),
        Contract(
            name="repro.workloads.characteristics.PhaseSpec",
            load=lambda: types["PhaseSpec"],
            example=lambda: types["PhaseSpec"](
                length=4_000, overrides={"load_fraction": 0.4}
            ),
            fingerprintable=True,
            dict_round_trip=True,
        ),
        Contract(
            name="repro.core.configuration.AdaptiveConfigIndices",
            load=lambda: types["AdaptiveConfigIndices"],
            example=lambda: types["AdaptiveConfigIndices"](1, 2, 32, 64),
            fingerprintable=True,
        ),
        Contract(
            name="repro.core.configuration.MachineSpec",
            load=lambda: types["MachineSpec"],
            example=lambda: types["SimulationJob"](
                profile=_example_profile()
            ).build_spec(),
            fingerprintable=True,
        ),
        Contract(
            name="repro.core.controllers.params.AdaptiveControlParams",
            load=lambda: types["AdaptiveControlParams"],
            example=lambda: types["AdaptiveControlParams"](
                interval_instructions=2_500
            ),
            fingerprintable=True,
        ),
        Contract(
            name="repro.analysis.metrics.ConfigurationChange",
            load=lambda: types["ConfigurationChange"],
            example=lambda: types["ConfigurationChange"](
                committed_instructions=100,
                time_ps=42,
                domain="load_store",
                structure="dcache",
                configuration="dc1",
                index=1,
            ),
            dict_round_trip=True,
        ),
        Contract(
            # The one deliberately mutable type: the processor fills it in
            # incrementally.  Its contract is lossless persistence, not
            # immutability.
            name="repro.analysis.metrics.RunResult",
            load=lambda: types["RunResult"],
            example=example_result,
            frozen=False,
            dict_round_trip=True,
        ),
        Contract(
            name="repro.scenarios.spec.ScenarioSpec",
            load=lambda: types["ScenarioSpec"],
            example=lambda: types["ScenarioSpec"](
                name="checks-example",
                family="checks",
                description="serialization-contract fixture",
                base="gcc",
                overrides={"load_fraction": 0.31},
                phases=(types["PhaseSpec"](length=3_000),),
            ),
            dict_round_trip=True,
        ),
    ]


def _anchor(cls: type) -> tuple[str, int]:
    """Repo-relative file and line of *cls*'s definition."""
    import inspect

    try:
        path = Path(inspect.getsourcefile(cls) or "")
        line = inspect.getsourcelines(cls)[1]
        relative = path.resolve().relative_to(repo_root().resolve()).as_posix()
        return relative, line
    except (OSError, TypeError, ValueError):
        return cls.__module__.replace(".", "/") + ".py", 0


def check_contracts(contracts: list[Contract] | None = None) -> Iterator[Finding]:
    """Verify every contract; findings anchor at the offending class."""
    from repro.engine.job import canonical_payload

    if contracts is None:
        contracts = contract_registry()

    for contract in contracts:
        cls = contract.load()
        path, line = _anchor(cls)

        def flag(message: str) -> Finding:
            return Finding(
                rule=SERIALIZATION_CONTRACT,
                path=path,
                line=line,
                message=f"{contract.name}: {message}",
            )

        if not is_dataclass(cls):
            yield flag("must be a dataclass (engine data-plane type)")
            continue
        params = getattr(cls, "__dataclass_params__", None)
        if contract.frozen and not (params is not None and params.frozen):
            yield flag(
                "must be declared @dataclass(frozen=True): it participates in "
                "fingerprints/caches and must not mutate after construction"
            )

        try:
            example = contract.example()
        except Exception as error:  # noqa: BLE001 - report, don't crash the run
            yield flag(f"example factory failed: {error!r}")
            continue

        if contract.fingerprintable:
            try:
                import json

                json.dumps(canonical_payload(example), sort_keys=True)
            except (TypeError, ValueError) as error:
                yield flag(
                    f"canonical_payload cannot fingerprint an instance ({error}); "
                    "every field must reduce to JSON-stable plain data"
                )

        if contract.pickle_round_trip:
            try:
                clone = pickle.loads(pickle.dumps(example))
            except Exception as error:  # noqa: BLE001
                yield flag(
                    f"pickle round-trip failed ({error!r}); executors ship this "
                    "type across process boundaries"
                )
            else:
                if clone != example:
                    yield flag(
                        "pickle round-trip is lossy (clone != original); "
                        "check __reduce__/__eq__"
                    )

        if contract.dict_round_trip:
            to_dict = getattr(cls, "to_dict", None)
            from_dict = getattr(cls, "from_dict", None)
            if to_dict is None or from_dict is None:
                yield flag(
                    "must define to_dict() and from_dict() (persisted by the "
                    "result cache / scenario files)"
                )
            else:
                try:
                    import json

                    data = example.to_dict()
                    rebuilt = cls.from_dict(json.loads(json.dumps(data)))
                except Exception as error:  # noqa: BLE001
                    yield flag(f"to_dict/from_dict round-trip raised {error!r}")
                else:
                    if rebuilt != example:
                        yield flag(
                            "to_dict/from_dict round-trip is lossy through JSON "
                            "(rebuilt != original); persistent stores would "
                            "diverge from live results"
                        )


def _check_project(root: Path) -> Iterator[Finding]:
    yield from check_contracts()


register(
    Rule(
        rule_id=SERIALIZATION_CONTRACT,
        description=(
            "engine data-plane types must be frozen dataclasses with lossless "
            "pickle and to_dict/from_dict round-trips (import-and-introspect)"
        ),
        check_project=_check_project,
    )
)
