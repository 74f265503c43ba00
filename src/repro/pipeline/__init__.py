"""Timing-pipeline substrate shared by the adaptive MCD machine and the
fully synchronous baseline: dynamic-instruction bookkeeping, issue queues,
reorder buffer, load/store queue, register files and functional units, and
the fetch/rename front end.

The processor's per-instruction paths (dispatch, issue, commit) update these
structures' deques, lists and counters directly, making the same capacity
checks as the structures' own methods, which serve every other caller."""

from repro.pipeline.dyninst import DynInst
from repro.pipeline.resources import FunctionalUnitPool, PhysicalRegisterFile
from repro.pipeline.issue_queue import IssueQueue
from repro.pipeline.rob import ReorderBuffer
from repro.pipeline.lsq import LoadStoreQueue
from repro.pipeline.frontend import FetchQueue, FrontEnd

__all__ = [
    "DynInst",
    "FunctionalUnitPool",
    "PhysicalRegisterFile",
    "IssueQueue",
    "ReorderBuffer",
    "LoadStoreQueue",
    "FetchQueue",
    "FrontEnd",
]
