"""Machine specifications: architectural parameters and configurations.

Two machine styles are supported:

* ``MachineStyle.ADAPTIVE_MCD`` — the paper's adaptive GALS machine: four
  independently clocked domains, resizable structures drawn from the
  *adaptive* timing tables, over-pipelined branch-misprediction penalty
  (10 front-end + 9 integer cycles), and cross-domain synchronisation costs.
* ``MachineStyle.SYNCHRONOUS`` — the fully synchronous baseline: a single
  global clock set by the slowest of its (capacity-optimised) structures, the
  lower 9 + 7 misprediction penalty, and no synchronisation costs.

The architectural parameters follow Table 5 of the paper.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Iterator

from repro.core.domains import Domain
from repro.timing.tables import (
    ADAPTIVE_DCACHE_CONFIGS,
    ADAPTIVE_ICACHE_CONFIGS,
    ISSUE_QUEUE_SIZES,
    OPTIMAL_DCACHE_CONFIGS,
    OPTIMIZED_ICACHE_CONFIGS,
    DCacheL2Config,
    ICacheConfig,
    issue_queue_frequency,
)


class MachineStyle(str, enum.Enum):
    """Which machine organisation a specification describes."""

    ADAPTIVE_MCD = "adaptive_mcd"
    SYNCHRONOUS = "synchronous"


@dataclass(frozen=True, slots=True)
class ArchitecturalParameters:
    """Fixed microarchitectural parameters (Table 5 of the paper)."""

    fetch_queue_entries: int = 16
    fetch_width: int = 8
    decode_width: int = 8
    issue_width: int = 6
    retire_width: int = 11
    decode_cycles: int = 2
    reorder_buffer_entries: int = 256
    load_store_queue_entries: int = 64
    physical_int_registers: int = 96
    physical_fp_registers: int = 96
    int_alus: int = 4
    int_complex_units: int = 1
    fp_alus: int = 4
    fp_complex_units: int = 1
    cache_ports: int = 2
    memory_first_chunk_ns: float = 80.0
    memory_subsequent_chunk_ns: float = 2.0
    mispredict_front_end_cycles_synchronous: int = 9
    mispredict_integer_cycles_synchronous: int = 7
    mispredict_front_end_cycles_adaptive: int = 10
    mispredict_integer_cycles_adaptive: int = 9


def check_index(name: str, index: int, count: int) -> None:
    """Raise a ``ValueError`` naming *name* unless ``0 <= index < count``."""
    if not 0 <= index < count:
        raise ValueError(f"{name} must be in [0, {count - 1}], got {index}")


@dataclass(frozen=True, slots=True)
class AdaptiveConfigIndices:
    """One point in the adaptive (or synchronous) configuration space.

    The I-cache index ranges over the sixteen synchronous configurations; an
    adaptive machine accepts only the first four (see
    :func:`adaptive_mcd_spec`).
    """

    icache_index: int = 0
    dcache_index: int = 0
    int_queue_size: int = 16
    fp_queue_size: int = 16

    def __post_init__(self) -> None:
        check_index("icache_index", self.icache_index, len(OPTIMIZED_ICACHE_CONFIGS))
        check_index("dcache_index", self.dcache_index, len(OPTIMAL_DCACHE_CONFIGS))
        if self.int_queue_size not in ISSUE_QUEUE_SIZES:
            raise ValueError(f"unsupported integer queue size {self.int_queue_size}")
        if self.fp_queue_size not in ISSUE_QUEUE_SIZES:
            raise ValueError(f"unsupported FP queue size {self.fp_queue_size}")

    def describe(self) -> str:
        """Short text form, e.g. ``ic0/dc1/iq16/fq32``."""
        return (
            f"ic{self.icache_index}/dc{self.dcache_index}"
            f"/iq{self.int_queue_size}/fq{self.fp_queue_size}"
        )


def adaptive_configuration_space() -> Iterator[AdaptiveConfigIndices]:
    """All 256 adaptive MCD configurations (4 x 4 x 4 x 4)."""
    for ic, dc, iq, fq in itertools.product(
        range(len(ADAPTIVE_ICACHE_CONFIGS)),
        range(len(ADAPTIVE_DCACHE_CONFIGS)),
        ISSUE_QUEUE_SIZES,
        ISSUE_QUEUE_SIZES,
    ):
        yield AdaptiveConfigIndices(ic, dc, iq, fq)


@dataclass(frozen=True, slots=True)
class MachineSpec:
    """A fully resolved machine to simulate."""

    style: MachineStyle
    icache: ICacheConfig
    dcache: DCacheL2Config
    int_queue_size: int
    fp_queue_size: int
    frequencies_ghz: dict[Domain, float]
    mispredict_front_end_cycles: int
    mispredict_integer_cycles: int
    use_b_partitions: bool
    inter_domain_sync: bool
    indices: AdaptiveConfigIndices | None = None
    parameters: ArchitecturalParameters = field(default_factory=ArchitecturalParameters)

    @property
    def is_adaptive(self) -> bool:
        """True for the adaptive MCD organisation."""
        return self.style is MachineStyle.ADAPTIVE_MCD

    def frequency(self, domain: Domain) -> float:
        """Frequency (GHz) of *domain* at the start of a run."""
        return self.frequencies_ghz[domain]

    def describe(self) -> str:
        """Readable one-line summary for reports."""
        freqs = ", ".join(
            f"{domain.value}={ghz:.2f}GHz" for domain, ghz in self.frequencies_ghz.items()
        )
        return (
            f"{self.style.value}: I${self.icache.name}, D$/L2 {self.dcache.name}, "
            f"IQ{self.int_queue_size}/FQ{self.fp_queue_size} [{freqs}]"
        )


def adaptive_mcd_spec(
    indices: AdaptiveConfigIndices | None = None,
    *,
    use_b_partitions: bool = False,
    parameters: ArchitecturalParameters | None = None,
) -> MachineSpec:
    """Build an adaptive MCD machine fixed at *indices*.

    ``use_b_partitions`` is False for whole-program (Program-Adaptive) runs —
    a miss in the A partition goes straight to the next level, exactly as the
    paper does for its whole-program experiments — and True when the machine
    will be driven by the phase-adaptive controllers.
    """
    indices = indices if indices is not None else AdaptiveConfigIndices()
    check_index("icache_index", indices.icache_index, len(ADAPTIVE_ICACHE_CONFIGS))
    parameters = parameters if parameters is not None else ArchitecturalParameters()
    icache = ADAPTIVE_ICACHE_CONFIGS[indices.icache_index]
    dcache = ADAPTIVE_DCACHE_CONFIGS[indices.dcache_index]
    frequencies = {
        Domain.FRONT_END: icache.frequency_ghz,
        Domain.INTEGER: issue_queue_frequency(indices.int_queue_size),
        Domain.FLOATING_POINT: issue_queue_frequency(indices.fp_queue_size),
        Domain.LOAD_STORE: dcache.frequency_ghz,
    }
    return MachineSpec(
        style=MachineStyle.ADAPTIVE_MCD,
        icache=icache,
        dcache=dcache,
        int_queue_size=indices.int_queue_size,
        fp_queue_size=indices.fp_queue_size,
        frequencies_ghz=frequencies,
        mispredict_front_end_cycles=parameters.mispredict_front_end_cycles_adaptive,
        mispredict_integer_cycles=parameters.mispredict_integer_cycles_adaptive,
        use_b_partitions=use_b_partitions,
        inter_domain_sync=True,
        indices=indices,
        parameters=parameters,
    )


def base_adaptive_spec(
    *, use_b_partitions: bool = True, parameters: ArchitecturalParameters | None = None
) -> MachineSpec:
    """The adaptive MCD machine in its base (smallest, fastest) configuration.

    This is the starting point of every phase-adaptive run: 16 KB
    direct-mapped I-cache, 32 KB/256 KB direct-mapped D/L2, 16-entry issue
    queues, with the B partitions available to the controllers.
    """
    return adaptive_mcd_spec(
        AdaptiveConfigIndices(0, 0, 16, 16),
        use_b_partitions=use_b_partitions,
        parameters=parameters,
    )


def synchronous_spec(
    indices: AdaptiveConfigIndices | None = None,
    *,
    parameters: ArchitecturalParameters | None = None,
) -> MachineSpec:
    """Build a fully synchronous machine from *indices*.

    The I-cache index selects from the sixteen capacity-optimised
    configurations of Table 3 and the D-cache index from the optimal column
    of Table 1.  The single global frequency is set by the slowest selected
    structure.
    """
    indices = indices if indices is not None else AdaptiveConfigIndices()
    parameters = parameters if parameters is not None else ArchitecturalParameters()
    icache = OPTIMIZED_ICACHE_CONFIGS[indices.icache_index]
    dcache = OPTIMAL_DCACHE_CONFIGS[indices.dcache_index]
    global_frequency = min(
        icache.frequency_ghz,
        dcache.frequency_ghz,
        issue_queue_frequency(indices.int_queue_size),
        issue_queue_frequency(indices.fp_queue_size),
    )
    frequencies = {domain: global_frequency for domain in Domain}
    return MachineSpec(
        style=MachineStyle.SYNCHRONOUS,
        icache=icache,
        dcache=dcache,
        int_queue_size=indices.int_queue_size,
        fp_queue_size=indices.fp_queue_size,
        frequencies_ghz=frequencies,
        mispredict_front_end_cycles=parameters.mispredict_front_end_cycles_synchronous,
        mispredict_integer_cycles=parameters.mispredict_integer_cycles_synchronous,
        use_b_partitions=False,
        inter_domain_sync=False,
        indices=indices,
        parameters=parameters,
    )


def best_overall_synchronous_spec(
    *, parameters: ArchitecturalParameters | None = None
) -> MachineSpec:
    """The paper's best-overall fully synchronous machine.

    Section 4: a 16-entry integer issue queue, a 16-entry floating-point
    queue, a 64 KB direct-mapped instruction cache with its associated branch
    predictor, and the 32 KB direct-mapped L1 data cache with a 256 KB
    direct-mapped L2.
    """
    icache_index = next(
        index
        for index, config in enumerate(OPTIMIZED_ICACHE_CONFIGS)
        if config.name == "64k1W"
    )
    return synchronous_spec(
        AdaptiveConfigIndices(icache_index, 0, 16, 16), parameters=parameters
    )
