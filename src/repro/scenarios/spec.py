"""Declarative scenario specifications.

A :class:`ScenarioSpec` names one synthetic workload shape: a base profile
(either a benchmark from :mod:`repro.workloads.suites` or the neutral
scenario default), a profile delta applied on top of it, and a phase program
built from :class:`~repro.workloads.characteristics.PhaseSpec` sequences.
Specs are plain data — dict/JSON round-trippable, comparable by content — and
*validated at construction*: building one immediately materialises its
:class:`~repro.workloads.characteristics.WorkloadProfile`, whose
construction checks every phase's effective parameters, so a scenario whose
phase overrides push a parameter out of range fails loudly at definition
time, not mid-campaign.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from types import MappingProxyType
from typing import Any, Mapping

from repro.workloads.characteristics import PhaseSpec, WorkloadProfile

#: Suite name stamped on every scenario-built profile.
SCENARIO_SUITE = "Scenario"

#: Profile fields a scenario delta may not set directly: identity and the
#: phase program belong to the spec itself.
_RESERVED_OVERRIDE_FIELDS = frozenset(
    {"name", "suite", "description", "phases", "simulation_window"}
)

#: The neutral starting point for scenarios that name no benchmark base: the
#: profile defaults, under a stable name so trace caching keys behave.
_DEFAULT_BASE = WorkloadProfile(name="scenario-base", suite=SCENARIO_SUITE)


@dataclass(frozen=True, slots=True)
class ScenarioSpec:
    """One named, validated workload scenario.

    Parameters
    ----------
    name:
        Unique scenario name (also the built profile's workload name, so it
        keys trace caching and appears in result records).
    family:
        Grouping label (``"archetype"``, ``"adversarial"``, ``"paper"``,
        ``"ramp"``, or any user-defined family).
    description:
        One-line human description, carried onto the built profile.
    base:
        Name of a benchmark workload to derive from (any
        :func:`repro.workloads.get_workload` name), or ``None`` for the
        neutral default profile.
    overrides:
        Profile delta applied on top of the base — any
        :class:`WorkloadProfile` field except the reserved identity/phase
        fields.
    phases:
        The phase program.  Build with the schedule builders in
        :mod:`repro.workloads.phases` (``square_wave``/``ramp``/``triangle``/
        ``burst_schedule``) or write :class:`PhaseSpec` tuples directly.
    simulation_window:
        Default measured window of the built profile (``None`` keeps the
        base profile's).
    """

    name: str
    family: str
    description: str = ""
    base: str | None = None
    overrides: Mapping[str, Any] = field(default_factory=dict)
    phases: tuple[PhaseSpec, ...] = ()
    simulation_window: int | None = None

    def __post_init__(self) -> None:
        if not self.name or not self.name.strip():
            raise ValueError("scenario name must be non-empty")
        if not self.family or not self.family.strip():
            raise ValueError(f"scenario {self.name!r}: family must be non-empty")
        reserved = set(self.overrides) & _RESERVED_OVERRIDE_FIELDS
        if reserved:
            raise ValueError(
                f"scenario {self.name!r}: overrides may not set {sorted(reserved)}; "
                "identity, phases and the window are spec-level fields"
            )
        object.__setattr__(self, "overrides", MappingProxyType(dict(self.overrides)))
        object.__setattr__(
            self,
            "phases",
            tuple(
                phase if isinstance(phase, PhaseSpec) else PhaseSpec.from_dict(phase)
                for phase in self.phases
            ),
        )
        # Materialise and validate eagerly: a bad delta or an out-of-range
        # effective phase parameter is a definition error.
        self.build_profile()

    def __reduce__(self):
        # MappingProxyType is not picklable; rebuild from plain values so
        # specs can cross process boundaries like profiles do.
        return (
            ScenarioSpec,
            (
                self.name,
                self.family,
                self.description,
                self.base,
                dict(self.overrides),
                self.phases,
                self.simulation_window,
            ),
        )

    # ------------------------------------------------------------ building

    def build_profile(self) -> WorkloadProfile:
        """Materialise the scenario as a validated :class:`WorkloadProfile`."""
        # Imported here: suites -> phases -> characteristics is the package's
        # natural order, and spec-level imports would pull the full 32-profile
        # table into every consumer of the dataclass alone.
        from repro.workloads.suites import get_workload

        base = get_workload(self.base) if self.base is not None else _DEFAULT_BASE
        overrides: dict[str, Any] = dict(self.overrides)
        overrides["name"] = self.name
        overrides["suite"] = SCENARIO_SUITE
        overrides["description"] = self.description
        overrides["phases"] = self.phases
        if self.simulation_window is not None:
            overrides["simulation_window"] = self.simulation_window
        return base.with_overrides(**overrides)

    @property
    def phase_program_length(self) -> int:
        """Instructions in one full cycle of the phase program (0 = steady)."""
        return sum(phase.length for phase in self.phases)

    # ------------------------------------------------------------ round trip

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form (stable key order) for JSON and fingerprints."""
        return {
            "name": self.name,
            "family": self.family,
            "description": self.description,
            "base": self.base,
            "overrides": {key: self.overrides[key] for key in sorted(self.overrides)},
            "phases": [phase.to_dict() for phase in self.phases],
            "simulation_window": self.simulation_window,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (unknown keys rejected)."""
        known = {spec.name for spec in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown ScenarioSpec fields: {sorted(unknown)}")
        payload = dict(data)
        payload["phases"] = tuple(
            PhaseSpec.from_dict(phase) for phase in payload.get("phases", ())
        )
        payload.setdefault("overrides", {})
        return cls(**payload)

    def to_json(self) -> str:
        """Canonical JSON form of the spec."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    def describe(self) -> str:
        """Short single-line label for tables and logs."""
        shape = f"{len(self.phases)} phases" if self.phases else "steady"
        origin = f"base={self.base}" if self.base else "default base"
        return f"{self.name} [{self.family}] ({origin}, {shape})"
