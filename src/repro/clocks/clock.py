"""Per-domain clock with optional jitter and run-time frequency changes."""

from __future__ import annotations

import zlib
from array import array
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from collections.abc import Iterator
from itertools import accumulate

from repro.clocks.time import Picoseconds, ghz_to_period_ps, period_ps_to_ghz

#: 2**32 — the crc32 output range, used to map per-edge digests onto [0, 1).
_CRC_RANGE = 4294967296.0

#: Typecode of an edge table's sums: 4-byte unsigned integers.
_SUM_TYPECODE = "I"

#: The largest sum an edge table holds, about 4.3 ms of simulated time.  A
#: table whose next sum would pass it is full, and its stream continues in
#: a table that starts at its last edge.
_SUM_LIMIT = (1 << (8 * array(_SUM_TYPECODE).itemsize)) - 1

#: Number of jittered edge tables kept per process.
DEFAULT_CACHE_EDGE_TABLES = 32


def jitter_steps(
    key: int, fraction: float, period_ps: Picoseconds, first: int, stop: int
) -> Iterator[Picoseconds]:
    """Jittered steps leading to edges *first* to *stop* - 1.

    The step leading to edge *i* (its 1-based advance count) is a pure
    function of ``(key, fraction, period_ps, i)``: the crc32 digest of *i*
    under *key*, mapped to a uniform offset in ``[-fraction/2, +fraction/2)``
    of the period and rounded to whole picoseconds.  With *fraction* below
    0.5 and a positive period every step is at least 1 ps.
    """
    crc32 = zlib.crc32
    return (
        round(
            period_ps
            * (1.0 + (crc32(index.to_bytes(8, "little"), key) / _CRC_RANGE - 0.5) * fraction)
        )
        for index in range(first, stop)
    )


class _EdgeTable:
    """Prefix sums of one jittered stream from one start edge index.

    ``sums[k]`` is the time from edge ``start`` to edge ``start + k``, so
    ``sums[0]`` is 0.  The table is append-only: it grows, one chunk per
    :meth:`reach`, only as far as its furthest reader asks.
    """

    __slots__ = ("key", "fraction", "period_ps", "start", "sums", "full")

    def __init__(self, key: int, fraction: float, period_ps: Picoseconds, start: int) -> None:
        self.key = key
        self.fraction = fraction
        self.period_ps = period_ps
        self.start = start
        self.sums = array(_SUM_TYPECODE, (0,))
        #: True once the next sum would pass :data:`_SUM_LIMIT`.
        self.full = False

    def reach(self, span: Picoseconds) -> bool:
        """Extend the table until its last sum is at least *span*.

        Returns False if the table fills first.  Each chunk evaluates steps
        for new indices only, as many as the remaining gap holds whole
        periods, plus one.
        """
        sums = self.sums
        last = sums[-1]
        while last < span:
            if self.full:
                return False
            first = self.start + len(sums)
            count = (span - last) // self.period_ps + 1
            chunk = list(
                accumulate(
                    jitter_steps(self.key, self.fraction, self.period_ps, first, first + count),
                    initial=last,
                )
            )
            if chunk[-1] > _SUM_LIMIT:
                del chunk[bisect_right(chunk, _SUM_LIMIT) :]
                self.full = True
            sums.extend(chunk[1:])
            last = sums[-1]
        return True


_tables: OrderedDict[tuple[int, float, Picoseconds, int], _EdgeTable] = OrderedDict()


def _edge_table(key: int, fraction: float, period_ps: Picoseconds, start: int) -> _EdgeTable:
    """The process's table for one stream from edge *start*, created if absent.

    Keeps the :data:`DEFAULT_CACHE_EDGE_TABLES` most recently used tables.
    A clock holding an evicted table still extends it; the next clock that
    asks for the same stream starts a new one.
    """
    ident = (key, fraction, period_ps, start)
    table = _tables.get(ident)
    if table is None:
        table = _tables[ident] = _EdgeTable(key, fraction, period_ps, start)
        while len(_tables) > DEFAULT_CACHE_EDGE_TABLES:
            _tables.popitem(last=False)
    else:
        _tables.move_to_end(ident)
    return table


def clear_edge_tables() -> None:
    """Drop every cached edge table (tests and memory-pressure escape hatch)."""
    _tables.clear()


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
    invocations and worker processes); :func:`jitter_steps` is the formula.
    Because no generator state is consumed, future edge times are known in
    advance, and every clock in the process that runs the same stream reads
    one shared, append-only table of its edges: the prefix sums of its
    steps from one start edge index, keyed by (jitter key, fraction, period,
    start index).  A jittered clock holds only its table and the time of the
    table's first edge; :meth:`advance` reads one entry, and
    :meth:`edge_at_or_after` and :meth:`skip_edges_before` are one
    ``bisect`` from the current edge.  So each jittered edge is computed once
    per process, every prediction is a true jittered edge that
    :meth:`advance` will later produce, and a bulk skip lands on precisely
    the ``next_edge`` the equivalent individual advances would — which is
    what allows the processor's work-horizon skip to stay enabled on
    jittered clocks.  A frequency change takes the table for the new period
    that starts at the current edge, so no step before it is evaluated
    again.  Sums are 4-byte and relative to their table's start; a full
    table's stream continues in a table that starts at its last edge.

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
        "_table",
        "_base",
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
        # A jittered clock's edge ``cycle_count`` is at ``_base +
        # _table.sums[cycle_count - _table.start]``.
        self._table: _EdgeTable | None = None
        self._base: Picoseconds = start_time_ps
        if jitter_fraction:
            self._table = _edge_table(self._jitter_key, jitter_fraction, self.period_ps, 0)

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
        if self.jitter_fraction:
            self._table = _edge_table(
                self._jitter_key, self.jitter_fraction, period_ps, self.cycle_count
            )
            self._base = self.next_edge

    def advance(self) -> Picoseconds:
        """Consume the current edge and return the time of the following one."""
        index = self.cycle_count + 1
        if self.jitter_fraction:
            table = self._table
            sums = table.sums
            position = index - table.start
            if position == len(sums):
                # The furthest edge of the stream so far.
                table, self._base, position = self._locate(self.next_edge + 1)
                self._table = table
                sums = table.sums
            self.next_edge = self._base + sums[position]
        else:
            self.next_edge += self.period_ps
        self.cycle_count = index
        return self.next_edge

    def _locate(self, time_ps: Picoseconds) -> tuple[_EdgeTable, Picoseconds, int]:
        """Table, base time and position of the first edge at or after
        *time_ps*, which must be later than ``next_edge``.

        Extends the clock's table as far as *time_ps*; past a full table it
        continues in the table that starts at the full one's last edge.
        """
        table = self._table
        base = self._base
        low = self.cycle_count - table.start
        while not table.reach(time_ps - base):
            sums = table.sums
            base += sums[-1]
            table = _edge_table(
                table.key, table.fraction, table.period_ps, table.start + len(sums) - 1
            )
            low = 0
        return table, base, bisect_left(table.sums, time_ps - base, low)

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
        table = self._table
        sums = table.sums
        span = time_ps - self._base
        if sums[-1] >= span:
            return self._base + sums[bisect_left(sums, span, self.cycle_count - table.start)]
        table, base, position = self._locate(time_ps)
        return base + table.sums[position]

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
        table = self._table
        sums = table.sums
        base = self._base
        span = time_ps - base
        if sums[-1] >= span:
            position = bisect_left(sums, span, self.cycle_count - table.start)
        else:
            table, base, position = self._locate(time_ps)
            self._table = table
            self._base = base
            sums = table.sums
        index = table.start + position
        count = index - self.cycle_count
        self.cycle_count = index
        self.next_edge = base + sums[position]
        return count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DomainClock({self.name!r}, {self.frequency_ghz:.3f} GHz, "
            f"next_edge={self.next_edge} ps)"
        )
