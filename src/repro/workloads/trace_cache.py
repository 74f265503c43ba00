"""Per-process memoisation of compiled synthetic traces.

Within one sweep the same ``(profile, seed)`` trace is consumed by dozens of
machine configurations.  :func:`cached_trace` compiles each trace once per
process: the generator writes its rows into one shared
:class:`~repro.workloads.generator.CompiledTrace`, whose columns grow as far
as the longest consumer reads, and every job fetches from those columns
through its own cursor starting at row 0.

The cache is per process (worker processes of the parallel executor each
build their own) and keeps the :data:`DEFAULT_CACHE_TRACES` most recently
used traces.
"""

from __future__ import annotations

import json
from collections import OrderedDict

from repro.workloads.characteristics import DOC_ONLY_FIELDS, WorkloadProfile
from repro.workloads.generator import CompiledTrace, SyntheticTraceGenerator

__all__ = [
    "DEFAULT_CACHE_TRACES",
    "CompiledTrace",
    "ReplayableTrace",
    "cached_trace",
    "clear_trace_cache",
]

#: Number of distinct (profile, seed) traces memoised per process.
DEFAULT_CACHE_TRACES = 4


class ReplayableTrace:
    """One ``(profile, seed)`` trace and its shared compiled columns."""

    __slots__ = ("profile", "seed", "compiled")

    def __init__(self, profile: WorkloadProfile, *, seed: int) -> None:
        self.profile = profile
        self.seed = seed
        self.compiled = CompiledTrace(SyntheticTraceGenerator(profile, seed=seed))


_cache: "OrderedDict[tuple[str, int], ReplayableTrace]" = OrderedDict()


def _profile_key(profile: WorkloadProfile) -> str:
    """Cache key over the fields that influence the generated stream.

    Doc-only fields (``description`` and the paper-provenance records) are
    excluded: editing one must neither evict a cached trace nor make two
    otherwise-identical profiles miss each other's stream.
    """
    data = {
        key: value
        for key, value in profile.to_dict().items()
        if key not in DOC_ONLY_FIELDS
    }
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def cached_trace(profile: WorkloadProfile, *, seed: int) -> ReplayableTrace:
    """The shared trace for ``(profile, seed)``, built once while it stays cached."""
    key = (_profile_key(profile), seed)
    trace = _cache.get(key)
    if trace is None:
        trace = _cache[key] = ReplayableTrace(profile, seed=seed)
        while len(_cache) > DEFAULT_CACHE_TRACES:
            _cache.popitem(last=False)
    else:
        _cache.move_to_end(key)
    return trace


def clear_trace_cache() -> None:
    """Drop every memoised trace (tests and memory-pressure escape hatch)."""
    _cache.clear()
