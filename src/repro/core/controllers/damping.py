"""The damping rule every phase-adaptive controller applies to its raw winner.

A reconfiguration pays a PLL re-lock, so a controller does not simply take
each interval's best configuration.  The raw winner must beat the current
configuration by a margin, ``hysteresis`` when it is larger (growing a
structure commits its domain to a lower frequency) and
:data:`DOWNSIZE_MARGIN` when it is smaller (shrinking recovers frequency),
and it must win ``consecutive_decisions_required`` intervals in a row.

:class:`DampedController` owns that rule, the current configuration and
the streak; a subclass supplies each interval's per-configuration values,
its raw winner and how two values compare (``_holds``).  Every controller
records each interval as one :class:`ControllerDecision` in configuration
indices, smallest configuration first.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Margin by which a smaller configuration must win to displace the current
#: one.
DOWNSIZE_MARGIN = 0.02


@dataclass(frozen=True, slots=True)
class ControllerDecision:
    """One interval's evaluation by a phase-adaptive controller.

    ``previous``, ``best`` and ``raw_best`` (the winner before damping) are
    configuration indices.  ``values`` holds each configuration's value:
    the access cost in picoseconds for a cache (lower wins), the
    frequency-scaled ILP score for an issue queue (higher wins).  ``margin``
    is the margin that applied, ``pending_candidate``/``pending_count`` the
    streak after this interval, and ``suppressed_by`` names what held the
    current configuration against the raw winner (``"hysteresis"``,
    ``"streak"``, or empty when the raw winner was taken).
    """

    structure: str
    previous: int
    best: int
    raw_best: int
    values: tuple[float, ...]
    margin: float
    pending_candidate: int | None
    pending_count: int
    suppressed_by: str

    @property
    def changed(self) -> bool:
        """True when the controller selected a different configuration."""
        return self.best != self.previous


class DampedController:
    """The current configuration of one structure and the damping rule."""

    def __init__(
        self,
        *,
        name: str,
        initial_index: int = 0,
        hysteresis: float = 0.0,
        consecutive_decisions_required: int = 1,
    ) -> None:
        if not 0 <= hysteresis < 0.5:
            raise ValueError("hysteresis must be in [0, 0.5)")
        if consecutive_decisions_required < 1:
            raise ValueError("consecutive_decisions_required must be >= 1")
        self.name = name
        self.current_index = initial_index
        self.hysteresis = hysteresis
        self.consecutive_decisions_required = consecutive_decisions_required
        self._pending_candidate: int | None = None
        self._pending_count = 0
        self.decisions: list[ControllerDecision] = []

    def _holds(self, candidate: float, current: float, margin: float) -> bool:
        """True when a *candidate* value fails to beat the *current*
        configuration's value by *margin*."""
        raise NotImplementedError

    def _decide(self, values: tuple[float, ...], raw_best: int) -> ControllerDecision:
        """Damp the raw winner, record the decision and adopt its choice."""
        current = self.current_index
        best = raw_best
        margin = 0.0
        suppressed_by = ""
        if best != current:
            margin = self.hysteresis if best > current else DOWNSIZE_MARGIN
            if self._holds(values[best], values[current], margin):
                best = current
                suppressed_by = "hysteresis"
        if best == current:
            self._pending_candidate = None
            self._pending_count = 0
        else:
            if best == self._pending_candidate:
                self._pending_count += 1
            else:
                self._pending_candidate = best
                self._pending_count = 1
            if self._pending_count < self.consecutive_decisions_required:
                best = current
                suppressed_by = "streak"
            else:
                self._pending_candidate = None
                self._pending_count = 0
        decision = ControllerDecision(
            structure=self.name,
            previous=current,
            best=best,
            raw_best=raw_best,
            values=values,
            margin=margin,
            pending_candidate=self._pending_candidate,
            pending_count=self._pending_count,
            suppressed_by=suppressed_by,
        )
        self.decisions.append(decision)
        self.current_index = best
        return decision
