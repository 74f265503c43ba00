"""Workload profiles: the parametric stand-in for real benchmark binaries."""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from types import MappingProxyType
from typing import Any, Mapping


#: Fields that document a profile without influencing the generated
#: instruction stream.  The trace cache keys on everything *except* these, so
#: editing a docstring-like field cannot evict or duplicate a cached trace.
DOC_ONLY_FIELDS = frozenset({"description", "paper_dataset", "paper_window"})


#: Profile fields that a phase may override.  Structural fields (code layout,
#: block size) stay fixed across phases because the static program does not
#: change at run time.
PHASE_OVERRIDABLE_FIELDS = frozenset(
    {
        "load_fraction",
        "store_fraction",
        "fp_fraction",
        "int_mult_fraction",
        "fp_mult_fraction",
        "cond_branch_density",
        "predictable_branch_fraction",
        "hard_branch_bias",
        "data_footprint_kb",
        "hot_data_kb",
        "hot_data_fraction",
        "sequential_fraction",
        "mean_dependence_distance",
        "far_dependence_fraction",
    }
)


@dataclass(frozen=True, slots=True)
class PhaseSpec:
    """One program phase: a length and the dynamic parameters it overrides."""

    length: int
    overrides: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError("phase length must be positive")
        unknown = set(self.overrides) - PHASE_OVERRIDABLE_FIELDS
        if unknown:
            raise ValueError(
                f"phase overrides reference non-overridable fields: {sorted(unknown)}"
            )
        object.__setattr__(self, "overrides", MappingProxyType(dict(self.overrides)))

    def __reduce__(self):
        # The read-only MappingProxyType wrapper is not picklable, which
        # would bar profiles with phases from crossing process boundaries in
        # the parallel experiment engine; rebuild from plain values instead.
        return (PhaseSpec, (self.length, dict(self.overrides)))

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form (stable key order) for fingerprints and JSON."""
        return {
            "length": self.length,
            "overrides": {key: self.overrides[key] for key in sorted(self.overrides)},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PhaseSpec":
        """Rebuild a phase from :meth:`to_dict` output."""
        return cls(length=data["length"], overrides=dict(data.get("overrides", {})))


#: The smallest hot region: one 8-byte word, the generator's access stride.
_MIN_HOT_DATA_KB = 8 / 1024


def _check_hot_region(hot_data_kb: float, *, context: str) -> None:
    if hot_data_kb < _MIN_HOT_DATA_KB:
        raise ValueError(
            f"{context}: hot_data_kb ({hot_data_kb!r}) must cover at least one "
            f"8-byte word ({_MIN_HOT_DATA_KB:g} KB)"
        )


#: Dynamic parameters that must stay inside the unit interval, checked on
#: construction for the base profile and every phase.
_UNIT_FRACTION_FIELDS = (
    "load_fraction",
    "store_fraction",
    "fp_fraction",
    "int_mult_fraction",
    "fp_mult_fraction",
    "cond_branch_density",
    "predictable_branch_fraction",
    "hard_branch_bias",
    "hot_data_fraction",
    "sequential_fraction",
    "far_dependence_fraction",
)


@dataclass(frozen=True, slots=True)
class WorkloadProfile:
    """Parametric description of one benchmark application.

    Parameters are grouped as follows.

    Instruction mix
        ``load_fraction`` and ``store_fraction`` are fractions of all
        instructions; ``fp_fraction`` is the fraction of *compute* (non
        memory, non branch) instructions that are floating point;
        ``int_mult_fraction`` / ``fp_mult_fraction`` select long-latency
        operations within their class; ``cond_branch_density`` adds
        data-dependent conditional branches inside basic blocks (on top of
        the loop-closing branch that ends every block).

    Control behaviour
        ``block_size`` is the number of instructions per basic block;
        ``predictable_branch_fraction`` is the fraction of static conditional
        branches with a strong bias, the remainder being data-dependent
        branches with bias ``hard_branch_bias``.

    Instruction footprint
        The static program is ``code_footprint_kb`` of code executed as a
        two-level loop nest: an inner window of ``inner_window_kb``
        contiguous code repeats ``inner_iterations`` times before the window
        slides onward (wrapping at the end of the program).  A footprint
        larger than the instruction cache therefore produces refill misses
        every time the window moves, while a large ``inner_window_kb``
        pressures the cache even within a phase.

    Data behaviour
        Accesses target a hot region of ``hot_data_kb`` with probability
        ``hot_data_fraction`` and the full ``data_footprint_kb`` otherwise;
        ``sequential_fraction`` of accesses walk the region sequentially, the
        rest are uniform random within it.

    Dependences / ILP
        Each source operand names the value produced
        ``~Geometric(mean_dependence_distance)`` instructions earlier, except
        with probability ``far_dependence_fraction`` it names an old,
        long-ready value.  Long mean distances expose more independent work
        to larger issue queues.

    Phases
        ``phases`` cycles through :class:`PhaseSpec` entries, each overriding
        dynamic parameters for ``length`` instructions.

    ``simulation_window`` is the scaled-down stand-in for the 100 M-200 M
    instruction windows of Tables 6-8 and is what a job simulates when it
    names no window.
    """

    name: str
    suite: str
    description: str = ""

    # Instruction mix.
    load_fraction: float = 0.24
    store_fraction: float = 0.10
    fp_fraction: float = 0.0
    int_mult_fraction: float = 0.02
    fp_mult_fraction: float = 0.25
    cond_branch_density: float = 0.04

    # Control behaviour.
    block_size: int = 10
    predictable_branch_fraction: float = 0.92
    hard_branch_bias: float = 0.55

    # Instruction footprint.
    code_footprint_kb: float = 8.0
    inner_window_kb: float = 4.0
    inner_iterations: int = 40

    # Data behaviour.
    data_footprint_kb: float = 64.0
    hot_data_kb: float = 16.0
    hot_data_fraction: float = 0.95
    sequential_fraction: float = 0.55

    # Dependences / ILP.
    mean_dependence_distance: float = 9.0
    far_dependence_fraction: float = 0.25

    # Phases.
    phases: tuple[PhaseSpec, ...] = ()

    # Scaled-down stand-in for the paper's simulation window.
    simulation_window: int = 24_000

    # Provenance: the dataset and simulation window the paper used
    # (Tables 6-8), recorded as documentation (see DOC_ONLY_FIELDS).
    paper_dataset: str = "reference"
    paper_window: str = ""

    def __post_init__(self) -> None:
        # The base profile's memory operations are capped tighter than a
        # phase's; every other range rule is in _validate_dynamic_params.
        if not 0 <= self.load_fraction <= 0.6:
            raise ValueError("load_fraction out of range")
        if not 0 <= self.store_fraction <= 0.5:
            raise ValueError("store_fraction out of range")
        if self.block_size < 2:
            raise ValueError("block_size must be at least 2")
        if self.code_footprint_kb <= 0 or self.inner_window_kb <= 0:
            raise ValueError("code footprint parameters must be positive")
        if self.inner_window_kb > self.code_footprint_kb:
            raise ValueError("inner_window_kb cannot exceed code_footprint_kb")
        if self.simulation_window <= 0:
            raise ValueError("simulation_window must be positive")
        self.validate()

    # ------------------------------------------------------------ validation

    def validate(self) -> "WorkloadProfile":
        """Check the dynamic parameters of the base profile and of every phase.

        Construction runs this, so a phase cannot push a parameter out of
        range (``hot_data_fraction`` of 2, a hot region larger than the
        footprint, a memory mix above 85 %) in any profile that exists.  Each
        phase is checked with its overrides applied to the base values, and
        a :class:`ValueError` names the offending context and field.
        Returns ``self``.
        """
        # Structural fields (block_size, code layout, window) are not phase
        # overridable: ``__post_init__`` checks them once.
        base = {name: getattr(self, name) for name in sorted(PHASE_OVERRIDABLE_FIELDS)}
        self._validate_dynamic_params(base, context=f"profile {self.name!r}")
        for index, phase in enumerate(self.phases):
            effective = dict(base)
            effective.update(phase.overrides)
            self._validate_dynamic_params(
                effective, context=f"profile {self.name!r}, phase {index}"
            )
        return self

    @staticmethod
    def _validate_dynamic_params(values: Mapping[str, Any], *, context: str) -> None:
        """Check one resolved set of dynamic parameters (base or per-phase)."""
        for name in _UNIT_FRACTION_FIELDS:
            value = values[name]
            if not 0 <= value <= 1:
                raise ValueError(
                    f"{context}: {name} must be within [0, 1], got {value!r}"
                )
        memory_mix = (
            values["load_fraction"]
            + values["store_fraction"]
            + values["cond_branch_density"]
        )
        if memory_mix > 0.85:
            raise ValueError(
                f"{context}: load_fraction ({values['load_fraction']:g}) + "
                f"store_fraction ({values['store_fraction']:g}) + "
                f"cond_branch_density ({values['cond_branch_density']:g}) = "
                f"{memory_mix:g} leaves no room for compute operations (max 0.85)"
            )
        if values["data_footprint_kb"] <= 0 or values["hot_data_kb"] <= 0:
            raise ValueError(
                f"{context}: data_footprint_kb ({values['data_footprint_kb']!r}) and "
                f"hot_data_kb ({values['hot_data_kb']!r}) must be positive"
            )
        _check_hot_region(values["hot_data_kb"], context=context)
        if values["hot_data_kb"] > values["data_footprint_kb"]:
            raise ValueError(
                f"{context}: hot_data_kb ({values['hot_data_kb']:g}) cannot exceed "
                f"data_footprint_kb ({values['data_footprint_kb']:g})"
            )
        if values["mean_dependence_distance"] < 1:
            raise ValueError(
                f"{context}: mean_dependence_distance must be >= 1, got "
                f"{values['mean_dependence_distance']!r}"
            )

    @property
    def is_floating_point(self) -> bool:
        """True when a meaningful share of compute operations is FP."""
        return self.fp_fraction >= 0.15

    @property
    def has_phases(self) -> bool:
        """True when the workload defines explicit phase behaviour."""
        return bool(self.phases)

    def with_overrides(self, **overrides: Any) -> "WorkloadProfile":
        """Return a copy with *overrides* applied (used by phase handling)."""
        valid = {f.name for f in fields(self)}
        unknown = set(overrides) - valid
        if unknown:
            raise ValueError(f"unknown profile fields: {sorted(unknown)}")
        return replace(self, **overrides)

    def scaled(self, factor: float) -> "WorkloadProfile":
        """Return a copy whose simulation window is scaled by *factor*."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        window = max(1_000, int(self.simulation_window * factor))
        return replace(self, simulation_window=window)

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form of the profile, suitable for JSON and hashing.

        Field order follows the dataclass definition so the output is stable
        across processes; phases are expanded via :meth:`PhaseSpec.to_dict`.
        """
        data: dict[str, Any] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name == "phases":
                value = [phase.to_dict() for phase in value]
            data[spec.name] = value
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadProfile":
        """Rebuild a profile from :meth:`to_dict` output."""
        payload = dict(data)
        payload["phases"] = tuple(
            PhaseSpec.from_dict(phase) for phase in payload.get("phases", ())
        )
        return cls(**payload)
