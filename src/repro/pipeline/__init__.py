"""Timing-pipeline substrate shared by the adaptive MCD machine and the
fully synchronous baseline: dynamic-instruction bookkeeping, issue queues,
reorder buffer, load/store queue, register files and functional units, and
the front end's fetch state.

The structures hold state; :class:`~repro.core.processor.MCDProcessor` is
the one implementation of fetch, dispatch, issue and commit.  Its
per-instruction paths read and update the structures' public fields
(``entries``, ``capacity``, ``allocated``, ``heap``/``ready``, ``cursor``,
``stall_until``, ...) directly and make every capacity check
themselves.  The structures keep only methods the processor calls, such as
issue-queue wake-up and re-keying, LSQ store forwarding and functional-unit
reservation."""

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
