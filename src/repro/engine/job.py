"""Simulation jobs: the unit of work of the experiment engine.

A :class:`SimulationJob` bundles everything a worker needs to reproduce one
run — the machine (named by construction recipe rather than a resolved
:class:`~repro.core.configuration.MachineSpec`, so the payload stays tiny),
the workload profile, the trace seed and the control parameters — plus a
stable content fingerprint so identical runs are recognised across sweeps,
experiment drivers, processes and sessions.

This module also owns the run-parameter defaults (warm-up length, adaptation
interval scaling, trace construction).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Mapping

from repro.core.configuration import (
    AdaptiveConfigIndices,
    MachineSpec,
    adaptive_mcd_spec,
    base_adaptive_spec,
    best_overall_synchronous_spec,
    check_index,
    synchronous_spec,
)
from repro.core.controllers.params import AdaptiveControlParams
from repro.core.synchronization import DEFAULT_WINDOW_FRACTION
from repro.timing.tables import ADAPTIVE_ICACHE_CONFIGS
from repro.workloads.characteristics import WorkloadProfile
from repro.workloads.trace_cache import CompiledTrace, cached_trace

#: Default trace seed so every machine sees the identical dynamic instruction
#: stream for a given workload.
DEFAULT_TRACE_SEED = 1234

#: Part of every fingerprint; bump whenever *simulator* semantics change
#: (processor, pipeline, cache or controller modelling) so persistent disk
#: caches from older code are invalidated.  Machine-configuration changes
#: (timing tables, spec fields) need no bump: the fingerprint hashes the
#: fully resolved :class:`MachineSpec`, so those invalidate automatically.
#:
#: Schema changes are *enforced* to bump: ``tests/test_fingerprint_schema.py``
#: compares this module's introspected :class:`SimulationJob` field/payload
#: structure (plus the ``RunResult`` fields and their digest classes)
#: against the committed ``tests/fingerprint_schema.json`` and fails tier-1
#: when either changes under an unchanged version.  After a deliberate bump,
#: run tier-1 and commit the snapshot its failure message prints.
FINGERPRINT_VERSION = 10  # v10: SimulationJob lost its control field, which
# nothing set; control_overrides is the one way to vary the controller
# parameters (the payload keys and simulated results are unchanged).  v9:
# SimulationJob lost its observation-only trace field and
# AdaptiveControlParams its unread decision-latency knob, which left the
# control payload (simulated results are bit-identical).  v8:
# RunResult lost its compiled-trace cache-hit counter, the one field the
# result cache reset before storing (simulated results are bit-identical).
# v7: RunResult lost the fast_forward_invocations,
# fast_forward_cycles and steady_stretches_skipped counters when one
# work-horizon skip replaced the fast-forward and event-horizon scheduling
# (the bump records the store-schema change; simulated results are
# bit-identical).  v6: trace field on SimulationJob (observation-only,
# excluded from the payload).


def default_warmup(profile: WorkloadProfile, window: int | None = None) -> int:
    """A warm-up length long enough to populate the caches for *profile*.

    Scales with the hot data footprint (so the measured window starts from a
    warm hierarchy, standing in for the paper's fast-forward windows) and is
    bounded so sweeps stay tractable.
    """
    window = window if window is not None else profile.simulation_window
    memory_fraction = max(0.05, profile.load_fraction + profile.store_fraction)
    hot_lines = profile.hot_data_kb * 1024 / 64
    cold_lines = max(0.0, (profile.data_footprint_kb - profile.hot_data_kb) * 1024 / 64)
    hot_rate = memory_fraction * max(profile.hot_data_fraction, 0.05)
    cold_rate = memory_fraction * max(1.0 - profile.hot_data_fraction, 0.02)
    # Factor ~2 approximates coupon-collector coverage of randomly touched lines.
    needed = int(hot_lines / hot_rate * 1.3 + cold_lines / cold_rate * 2.0)
    code_lines = profile.code_footprint_kb * 1024 / 64
    needed = max(needed, int(code_lines * profile.block_size))
    return int(min(100_000, max(6_000, needed)))


def default_control_params(window: int) -> AdaptiveControlParams:
    """Control parameters scaled to a simulation window of *window* instructions.

    The adaptation interval is one sixth of the window (minimum 500
    instructions) so several adaptation decisions occur per run while each
    interval still sees enough accesses to average out transients, and the
    PLL lock time tracks the interval duration, preserving the paper's
    "interval comparable to lock time" relationship under window scaling.
    """
    interval = max(500, window // 6)
    return AdaptiveControlParams(interval_instructions=interval)


def make_trace(profile: WorkloadProfile, seed: int = DEFAULT_TRACE_SEED) -> CompiledTrace:
    """The deterministic trace for *profile*: the process's shared
    :class:`~repro.workloads.generator.CompiledTrace` for ``(profile, seed)``,
    which :meth:`~repro.core.processor.MCDProcessor.run` reads.  Sweeps that
    simulate one workload under many machine configurations write its rows
    once, and every job reads them from row 0.
    """
    return cached_trace(profile, seed=seed).compiled


class SpecKind(str, enum.Enum):
    """Recipe for rebuilding the machine spec inside a worker process."""

    SYNCHRONOUS = "synchronous"
    BEST_SYNCHRONOUS = "best_synchronous"
    ADAPTIVE = "adaptive"
    BASE_ADAPTIVE = "base_adaptive"


_ADAPTIVE_KINDS = frozenset({SpecKind.ADAPTIVE, SpecKind.BASE_ADAPTIVE})


def canonical_payload(value: Any) -> Any:
    """Recursively convert *value* to plain JSON-stable data.

    Dataclasses become field dicts (definition order), enums their values and
    mappings key-sorted dicts, so two structurally equal objects always yield
    byte-identical JSON.
    """
    if is_dataclass(value) and not isinstance(value, type):
        return {
            spec.name: canonical_payload(getattr(value, spec.name))
            for spec in fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, Mapping):
        converted = {
            str(key.value if isinstance(key, enum.Enum) else key): item
            for key, item in value.items()
        }
        return {key: canonical_payload(converted[key]) for key in sorted(converted)}
    if isinstance(value, (list, tuple)):
        return [canonical_payload(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot canonicalise {type(value).__name__} for fingerprinting")


@dataclass(frozen=True, slots=True)
class SimulationJob:
    """One fully specified simulation run.

    ``window`` and ``warmup`` may be left ``None`` to inherit the
    profile-derived defaults; fingerprints are computed over the *resolved*
    values, so an explicit parameter equal to its default hits the same cache
    entry.  A phase-adaptive job runs the window-scaled controller
    parameters (:func:`default_control_params`).

    ``spec_overrides`` patches individual :class:`MachineSpec` fields after
    the recipe is built (``dataclasses.replace`` semantics) — how the
    ablation drivers express hypothetical machines such as a shallower
    misprediction penalty or synchronisation-free domain crossings.

    ``jitter_fraction`` and ``sync_window_fraction`` are the paper's
    timing-uncertainty knobs: peak-to-peak clock jitter as a fraction of each
    domain period, and the unsafe capture window at domain crossings as a
    fraction of the faster clock's period (``None`` inherits the paper's
    0.3).  ``control_overrides`` patches individual
    :class:`AdaptiveControlParams` fields on top of the resolved controller
    parameters (``dataclasses.replace`` semantics) — how sensitivity sweeps
    vary the adaptation interval or hysteresis without re-deriving the
    window-scaled defaults; it therefore requires a phase-adaptive job.
    Jitter requires an MCD machine: a synchronous one runs a single global
    clock.  An out-of-range value of any of the three raises
    :class:`ValueError` when the job is built.  All three knobs are part of
    the fingerprint, so jittered runs are cached and parallelised exactly
    like jitter-free ones.
    """

    profile: WorkloadProfile
    spec_kind: SpecKind = SpecKind.ADAPTIVE
    indices: AdaptiveConfigIndices | None = None
    use_b_partitions: bool = False
    spec_overrides: Mapping[str, Any] | None = None
    window: int | None = None
    warmup: int | None = None
    trace_seed: int = DEFAULT_TRACE_SEED
    phase_adaptive: bool = False
    seed: int = 0
    jitter_fraction: float = 0.0
    sync_window_fraction: float | None = None
    control_overrides: Mapping[str, Any] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.spec_kind, SpecKind):
            object.__setattr__(self, "spec_kind", SpecKind(self.spec_kind))
        if self.phase_adaptive and self.spec_kind not in _ADAPTIVE_KINDS:
            raise ValueError("phase-adaptive runs require an adaptive machine spec")
        if self.indices is not None and self.spec_kind in _ADAPTIVE_KINDS:
            check_index(
                "icache_index", self.indices.icache_index, len(ADAPTIVE_ICACHE_CONFIGS)
            )
        if self.window is not None and self.window <= 0:
            raise ValueError("window must be positive")
        if self.warmup is not None and self.warmup < 0:
            raise ValueError("warmup must be non-negative")
        if self.spec_overrides is not None:
            valid = {spec.name for spec in fields(MachineSpec)}
            unknown = set(self.spec_overrides) - valid
            if unknown:
                raise ValueError(f"unknown MachineSpec fields: {sorted(unknown)}")
            object.__setattr__(self, "spec_overrides", dict(self.spec_overrides))
        if not 0 <= self.jitter_fraction < 0.5:
            raise ValueError("jitter_fraction must be in [0, 0.5)")
        if self.jitter_fraction and self.spec_kind not in _ADAPTIVE_KINDS:
            raise ValueError(
                "jitter_fraction applies to MCD machines only: a synchronous "
                "machine runs one global clock"
            )
        if self.sync_window_fraction is not None and not (
            0 <= self.sync_window_fraction < 1
        ):
            raise ValueError("sync_window_fraction must be in [0, 1)")
        if self.control_overrides is not None:
            if not self.phase_adaptive:
                raise ValueError("control_overrides require a phase-adaptive job")
            valid = {spec.name for spec in fields(AdaptiveControlParams)}
            unknown = set(self.control_overrides) - valid
            if unknown:
                raise ValueError(
                    f"unknown AdaptiveControlParams fields: {sorted(unknown)}"
                )
            object.__setattr__(self, "control_overrides", dict(self.control_overrides))
            self.resolved_control()  # checks the overridden values' ranges

    # ------------------------------------------------------------ resolution

    def resolved_window(self) -> int:
        """Measured-instruction count after applying profile defaults."""
        return self.window if self.window is not None else self.profile.simulation_window

    def resolved_warmup(self) -> int:
        """Warm-up instruction count after applying profile defaults."""
        if self.warmup is not None:
            return self.warmup
        return default_warmup(self.profile, self.resolved_window())

    def resolved_control(self) -> AdaptiveControlParams | None:
        """Controller parameters actually passed to the processor (``None``
        unless the job is phase-adaptive)."""
        if not self.phase_adaptive:
            return None
        control = default_control_params(self.resolved_window())
        if self.control_overrides:
            control = dataclasses.replace(control, **self.control_overrides)
        return control

    def resolved_sync_window_fraction(self) -> float:
        """Synchronisation window after applying the paper default (0.3)."""
        if self.sync_window_fraction is not None:
            return self.sync_window_fraction
        return DEFAULT_WINDOW_FRACTION

    def build_spec(self) -> MachineSpec:
        """Rebuild the machine spec from the job's recipe."""
        if self.spec_kind is SpecKind.SYNCHRONOUS:
            spec = synchronous_spec(self.indices)
        elif self.spec_kind is SpecKind.BEST_SYNCHRONOUS:
            spec = best_overall_synchronous_spec()
        elif self.spec_kind is SpecKind.ADAPTIVE:
            spec = adaptive_mcd_spec(self.indices, use_b_partitions=self.use_b_partitions)
        else:
            spec = base_adaptive_spec(use_b_partitions=self.use_b_partitions)
        if self.spec_overrides:
            spec = dataclasses.replace(spec, **self.spec_overrides)
        return spec

    # ----------------------------------------------------------- fingerprint

    def payload(self) -> dict[str, Any]:
        """Canonical plain-data description of the job (resolved parameters).

        The machine entry is the fully built :class:`MachineSpec` (every
        field, overrides applied), not the construction recipe — so jobs
        that resolve to the same machine share a fingerprint no matter how
        they were expressed (``indices=None`` vs. the explicit base indices,
        ``BEST_SYNCHRONOUS`` vs. the same explicit synchronous point), and a
        timing-table recalibration changes the fingerprint and therefore
        invalidates any persistent cache entry automatically.
        """
        return {
            "version": FINGERPRINT_VERSION,
            "profile": canonical_payload(self.profile),
            "machine": canonical_payload(self.build_spec()),
            "run": {
                "window": self.resolved_window(),
                "warmup": self.resolved_warmup(),
                "trace_seed": self.trace_seed,
                "phase_adaptive": self.phase_adaptive,
                "control": canonical_payload(self.resolved_control()),
                "seed": self.seed,
                "jitter_fraction": self.jitter_fraction,
                "sync_window_fraction": self.resolved_sync_window_fraction(),
            },
        }

    def fingerprint(self) -> str:
        """Stable content hash identifying this run across processes."""
        encoded = json.dumps(self.payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(encoded.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """Short human-readable label for logs and progress output.

        Workload, machine and window, then a suffix for each timing knob
        and override that is set (override keys sorted), so the jobs of a
        sensitivity sweep can be told apart in ledger records, reports and
        the engine heartbeat.
        """
        machine = self.spec_kind.value
        if self.indices is not None:
            machine = f"{machine}:{self.indices.describe()}"
        parts = [self.profile.name, machine, f"w{self.resolved_window()}"]
        if self.jitter_fraction:
            parts.append(f"j{self.jitter_fraction:g}")
        if self.sync_window_fraction is not None:
            parts.append(f"sync{self.sync_window_fraction:g}")
        for overrides in (self.spec_overrides, self.control_overrides):
            if overrides:
                parts += [f"{key}={overrides[key]}" for key in sorted(overrides)]
        return "/".join(parts)
