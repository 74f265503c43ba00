"""Per-domain clock with optional jitter and run-time frequency changes."""

from __future__ import annotations

import zlib
from bisect import bisect_left

from repro.clocks.time import Picoseconds, ghz_to_period_ps, period_ps_to_ghz

#: 2**32 — the crc32 output range, used to map per-edge digests onto [0, 1).
_CRC_RANGE = 4294967296.0


class DomainClock:
    """An independently clocked domain's clock.

    The clock produces a monotonically increasing sequence of edges.  Edges
    are generated lazily: the simulator asks for :attr:`next_edge` and then
    calls :meth:`advance` once it has performed the work of that cycle.

    The frequency may be changed at any time with :meth:`set_frequency`; the
    new period takes effect from the *next* edge onward, which models a PLL
    that re-locks while the domain continues operating (XScale-style, as
    assumed in the paper).

    Jitter is a deterministic, *index-addressable* offset stream: the
    perturbation of edge *i* is a pure function of ``(name, seed, i)``
    (crc32-based, like the trace RNGs, so it is identical across interpreter
    invocations and worker processes).  Because no generator state is
    consumed, future edge times are known in advance, and the clock
    memoises them: each jittered edge is computed once, under the current
    period, and :meth:`advance`, :meth:`edge_at_or_after` and
    :meth:`skip_edges_before` index or ``bisect`` the memo.  So every
    prediction is a true jittered edge that :meth:`advance` will later
    produce, and a bulk skip lands on precisely the ``next_edge`` the
    equivalent individual advances would — which is what allows the
    processor's work-horizon skip to stay enabled on jittered clocks.  A
    frequency change clears the memo, and consumed entries are trimmed when
    it is extended, so it holds at most the furthest look-ahead.

    ``next_edge``, ``period_ps``, ``cycle_count`` and ``jitter_fraction`` are
    plain attributes (not properties): the simulator's main loop reads them
    every iteration, and attribute reads are several times cheaper than
    property calls.  Treat them as read-only outside this class — frequency
    changes must go through :meth:`set_frequency` / :meth:`set_period_ps` and
    edge consumption through :meth:`advance`.

    Parameters
    ----------
    name:
        Human-readable domain name (used in logs and statistics).
    frequency_ghz:
        Initial frequency.
    jitter_fraction:
        Peak-to-peak jitter as a fraction of the period.  Each edge is
        perturbed by a deterministic pseudo-random offset drawn uniformly in
        ``[-jitter/2, +jitter/2)``.  Zero (the default) disables jitter.
    seed:
        Seed for the jitter stream, so runs are reproducible.
    start_time_ps:
        Time of the first edge.
    """

    __slots__ = (
        "name",
        "period_ps",
        "jitter_fraction",
        "next_edge",
        "cycle_count",
        "_jitter_key",
        "_memo",
        "_memo_pos",
    )

    def __init__(
        self,
        name: str,
        frequency_ghz: float,
        *,
        jitter_fraction: float = 0.0,
        seed: int = 0,
        start_time_ps: Picoseconds = 0,
    ) -> None:
        if jitter_fraction < 0 or jitter_fraction >= 0.5:
            raise ValueError("jitter_fraction must be in [0, 0.5)")
        self.name = name
        self.period_ps = ghz_to_period_ps(frequency_ghz)
        self.jitter_fraction = jitter_fraction
        # crc32, not hash(): str hashing is salted per process, which would
        # make jittered clocks non-reproducible across interpreter runs.
        self._jitter_key = (seed ^ zlib.crc32(name.encode())) & 0xFFFFFFFF
        self.next_edge: Picoseconds = start_time_ps
        self.cycle_count = 0
        # The memo of future jittered edges: ``_memo[_memo_pos + k]`` is the
        # edge ``k + 1`` advances past ``next_edge``, under the current
        # period.  Entries before ``_memo_pos`` are consumed; they are trimmed
        # when the memo is next extended.
        self._memo: list[Picoseconds] = []
        self._memo_pos = 0

    # ------------------------------------------------------------------ API

    @property
    def frequency_ghz(self) -> float:
        """Current frequency in GHz."""
        return period_ps_to_ghz(self.period_ps)

    def set_frequency(self, frequency_ghz: float) -> None:
        """Change the clock frequency, effective from the next edge onward."""
        self.set_period_ps(ghz_to_period_ps(frequency_ghz))

    def set_period_ps(self, period_ps: Picoseconds) -> None:
        """Change the clock period directly, effective from the next edge."""
        if period_ps <= 0:
            raise ValueError("period must be positive")
        self.period_ps = period_ps
        # The memoised edges were stepped under the old period.
        self._memo.clear()
        self._memo_pos = 0

    def _jitter_step(self, index: int) -> Picoseconds:
        """Jittered step leading to edge *index* (1-based advance count).

        A pure function of ``(name, seed, index)`` and the current period:
        the crc32 digest of the edge index under the clock's key, mapped to a
        uniform offset in ``[-jitter/2, +jitter/2)``.
        """
        draw = zlib.crc32(index.to_bytes(8, "little"), self._jitter_key) / _CRC_RANGE
        offset = (draw - 0.5) * self.jitter_fraction
        return max(1, int(round(self.period_ps * (1.0 + offset))))

    def advance(self) -> Picoseconds:
        """Consume the current edge and return the time of the following one."""
        index = self.cycle_count = self.cycle_count + 1
        if self.jitter_fraction:
            memo = self._memo
            pos = self._memo_pos
            if pos < len(memo):
                self.next_edge = memo[pos]
                self._memo_pos = pos + 1
            else:
                # Past the memo's end ``_memo_pos`` stays put: the memo reads
                # as fully consumed, so its next extension starts from
                # ``next_edge``, not from its stale last entry.
                self.next_edge += self._jitter_step(index)
        else:
            self.next_edge += self.period_ps
        return self.next_edge

    def _memo_index(self, time_ps: Picoseconds) -> int:
        """Memo position of the first jittered edge at or after *time_ps*.

        Requires ``time_ps > next_edge``.  The memo is first extended, one
        :meth:`_jitter_step` per new edge, until its last edge reaches
        *time_ps*; consumed entries are trimmed on the way.
        """
        memo = self._memo
        if not memo or memo[-1] < time_ps:
            # Any entry with an edge at or after *time_ps* would be
            # unconsumed (it lies past ``next_edge``), so the memo falls
            # short: drop the consumed prefix and extend from the last
            # unconsumed edge, or from ``next_edge`` when none is left.
            del memo[: self._memo_pos]
            self._memo_pos = 0
            edge = memo[-1] if memo else self.next_edge
            index = self.cycle_count + len(memo)
            step = self._jitter_step
            while edge < time_ps:
                index += 1
                edge += step(index)
                memo.append(edge)
        return bisect_left(memo, time_ps, self._memo_pos)

    def edge_at_or_after(self, time_ps: Picoseconds) -> Picoseconds:
        """Return the first edge at or after *time_ps* without advancing.

        The calculation assumes the current period holds from the next edge
        forward, which is exactly the information available to hardware in
        the consuming domain.  On a jittered clock the returned time is a
        *true* jittered edge — the exact value a sequence of :meth:`advance`
        calls would produce — never a nominal-period extrapolation.
        """
        edge = self.next_edge
        if time_ps <= edge:
            return edge
        if not self.jitter_fraction:
            delta = time_ps - edge
            cycles = -(-delta // self.period_ps)  # ceiling division
            return edge + cycles * self.period_ps
        return self._memo[self._memo_index(time_ps)]

    def skip_edges_before(self, time_ps: Picoseconds) -> int:
        """Consume every unconsumed edge strictly before *time_ps*.

        Lands on exactly the ``next_edge`` and ``cycle_count`` that calling
        :meth:`advance` until ``next_edge >= time_ps`` would reach — the
        work-horizon skip's batching primitive.  Returns the number of edges
        consumed.
        """
        edge = self.next_edge
        if edge >= time_ps:
            return 0
        if not self.jitter_fraction:
            count = -(-(time_ps - edge) // self.period_ps)  # ceiling division
            self.cycle_count += count
            self.next_edge += count * self.period_ps
            return count
        landing = self._memo_index(time_ps)
        count = landing - self._memo_pos + 1
        self._memo_pos = landing + 1
        self.cycle_count += count
        self.next_edge = self._memo[landing]
        return count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DomainClock({self.name!r}, {self.frequency_ghz:.3f} GHz, "
            f"next_edge={self.next_edge} ps)"
        )
