"""Cache substrate: the Accounting Cache of Dropsho et al. (A/B partitions
with exact what-if accounting over MRU-ordered sets), the main memory model,
and the load/store-domain cache hierarchy.

Every cache is an :class:`AccountingCache` whose sets are flat MRU-ordered
tag lists built on first touch; one ``access`` call does the whole probe, and
``warm`` applies the same MRU update to a warm-up stream without counting.
:meth:`CacheHierarchy.access_data` returns the completion time in
picoseconds, and the hierarchy's counters carry the per-level outcomes."""

from repro.caches.accounting import AccessOutcome, AccountingCache, CacheIntervalStats
from repro.caches.memory import MainMemory
from repro.caches.hierarchy import CacheHierarchy

__all__ = [
    "AccessOutcome",
    "AccountingCache",
    "CacheIntervalStats",
    "MainMemory",
    "CacheHierarchy",
]
