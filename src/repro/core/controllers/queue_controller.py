"""ILP-tracking issue-queue controller (Section 3.2 of the paper).

The controller measures the *inherent* ILP of the instruction stream,
independent of the microarchitecture, by tracking dependence heights through
the rename map: every renamed instruction's destination receives a timestamp
one larger than the largest timestamp among its sources.  The paper runs four
trackers per queue, one per candidate queue size N in {16, 32, 48, 64};
tracker N closes its window once N instructions of the tracked class (integer
or floating point) have been observed, recording the maximum timestamp M_N
seen so far.  N/M_N estimates the ILP a window of N instructions exposes;
scaling each estimate by the frequency that queue size permits and taking the
maximum gives the queue size that would have yielded the highest effective
throughput over the recent past.

Timestamps saturate at the width the paper provisions (4 bits for the
16-entry tracker, 5 for 32, 6 for 48 and 64), and windows for the less
dominant instruction class terminate early when the dominant class fills the
machine, exactly as described in the paper.

The simulator computes all eight trackers (two queues, four sizes) with one
:class:`ILPTracker`, which is exact because of two identities:

* **Sizes.**  Clamping commutes with the height update:
  ``min(max(a, b) + 1, s) == min(max(min(a, s), min(b, s)) + 1, s)``.  So the
  timestamps of tracker N are the unsaturated dependence heights clamped at
  N's saturation, and one list of heights serves all four sizes.  Tracker
  N's window maximum is its class's running maximum height at the moment N's
  window closes, clamped at N's saturation.
* **Classes.**  The integer and floating-point trackers see the same stream
  from the same reset with "tracked" and "other" swapped, so their timestamp
  lists are equal.  Size N's window closes for both when the larger of the
  two class counts reaches N, so both complete on the same instruction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.controllers.damping import ControllerDecision, DampedController
from repro.isa.registers import TOTAL_LOGICAL_REGS
from repro.timing.tables import ISSUE_QUEUE_FREQUENCY_GHZ, ISSUE_QUEUE_SIZES

if TYPE_CHECKING:
    from repro.pipeline.dyninst import DynInst

#: Timestamp width per tracked queue size (bits), per the paper.
TIMESTAMP_BITS: dict[int, int] = {16: 4, 32: 5, 48: 6, 64: 6}


class ILPTracker:
    """Dependence-height tracking for every queue size and both classes.

    :meth:`observe` takes each renamed instruction and returns True on the
    instruction that closes the widest window; :meth:`estimates` then gives
    either class's ILP estimate per queue size, and :meth:`reset` starts the
    next window.  See the module docstring for why one timestamp list and
    one pair of counts reproduce the paper's eight trackers exactly.
    """

    __slots__ = (
        "saturations",
        "timestamps",
        "int_count",
        "fp_count",
        "int_height",
        "fp_height",
        "_closed",
        "_next_close",
    )

    def __init__(self) -> None:
        self.saturations = tuple((1 << TIMESTAMP_BITS[size]) - 1 for size in ISSUE_QUEUE_SIZES)
        self.reset()

    def reset(self) -> None:
        """Clear the window (hardware counter reset between windows)."""
        self.timestamps = [0] * TOTAL_LOGICAL_REGS
        self.int_count = self.fp_count = 0
        self.int_height = self.fp_height = 0
        #: ``(int count, int height, fp count, fp height)`` at each closed
        #: size's close, smallest size first.  Heights are unsaturated: each
        #: size's saturation is applied when its estimate is read.
        self._closed: list[tuple[int, int, int, int]] = []
        self._next_close = ISSUE_QUEUE_SIZES[0]

    def observe(self, inst: DynInst) -> bool:
        """Feed one renamed instruction; True when the widest window closes.

        Only the instruction's class, destination and first two sources are
        read.  Once every window is closed, further instructions change no
        estimate until :meth:`reset`.
        """
        timestamps = self.timestamps
        source_count = inst.source_count
        if source_count:
            height = timestamps[inst.src0]
            if source_count > 1:
                other = timestamps[inst.src1]
                if other > height:
                    height = other
            height += 1
        else:
            height = 1
        dest = inst.dest
        if dest >= 0:
            timestamps[dest] = height
        if inst.is_fp:
            count = self.fp_count + 1
            self.fp_count = count
            if height > self.fp_height:
                self.fp_height = height
        else:
            count = self.int_count + 1
            self.int_count = count
            if height > self.int_height:
                self.int_height = height
        # Counts grow by one per instruction, so the larger of the two
        # reaches the next size exactly when the class just counted does.
        if count == self._next_close:
            return self._close_window()
        return False

    def _close_window(self) -> bool:
        closed = self._closed
        closed.append((self.int_count, self.int_height, self.fp_count, self.fp_height))
        if len(closed) < len(ISSUE_QUEUE_SIZES):
            self._next_close = ISSUE_QUEUE_SIZES[len(closed)]
            return False
        self._next_close = 0  # no count is 0 after an increment
        return True

    def estimates(self, *, fp: bool) -> dict[int, float]:
        """One class's ILP estimate per queue size.

        That class's instructions in the size's window over their maximum
        height, clamped at the size's saturation (1.0 for a window with
        none).  A size whose window is still open reads the running counts.
        """
        closed = self._closed
        running = (self.int_count, self.int_height, self.fp_count, self.fp_height)
        windows = closed + [running] * (len(ISSUE_QUEUE_SIZES) - len(closed))
        estimates: dict[int, float] = {}
        for size, saturation, (int_count, int_height, fp_count, fp_height) in zip(
            ISSUE_QUEUE_SIZES, self.saturations, windows
        ):
            count, height = (fp_count, fp_height) if fp else (int_count, int_height)
            if height > saturation:
                height = saturation
            estimates[size] = count / height if height else 1.0
        return estimates


class PhaseAdaptiveQueueController(DampedController):
    """Resize decision logic for one issue queue (integer or floating point).

    Configuration indices run over
    :data:`~repro.timing.tables.ISSUE_QUEUE_SIZES`; ``hysteresis`` and
    ``consecutive_decisions_required`` damp the choice
    (:class:`~repro.core.controllers.damping.DampedController`).
    """

    def evaluate(self, estimates: dict[int, float]) -> ControllerDecision:
        """Pick the queue size with the best frequency-scaled effective ILP.

        *estimates* holds this queue's class's ILP estimate per queue size
        over the window just closed (:meth:`ILPTracker.estimates`).  The
        highest score is the raw winner, the smaller size on a tie.
        """
        # A list, not a generator: this runs twice per queue window, and each
        # generator step is a Python call.
        scores = tuple(
            [
                min(estimates[size], float(size)) * ISSUE_QUEUE_FREQUENCY_GHZ[size]
                for size in ISSUE_QUEUE_SIZES
            ]
        )
        return self._decide(scores, scores.index(max(scores)))

    def _holds(self, candidate: float, current: float, margin: float) -> bool:
        # Scores: the candidate must exceed the current score by the margin.
        return candidate <= current * (1.0 + margin)
