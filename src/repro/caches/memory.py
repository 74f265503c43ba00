"""Main-memory latency model.

Main memory is the fixed-frequency fifth "domain" of the MCD machine.  Per
Table 5 of the paper, the first chunk of an access takes 80 ns and each
subsequent chunk takes 2 ns, so filling a 64-byte line over an 8-byte channel
costs 80 + 7 x 2 = 94 ns.  The model also tracks simple per-bank open-row
state so that back-to-back accesses to the same DRAM row are cheaper, and a
single shared channel so that heavily overlapped misses queue behind each
other.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.clocks.time import Picoseconds, ns_to_ps


@dataclass(slots=True)
class MemoryStats:
    """Aggregate main-memory access counters."""

    accesses: int = 0


class MainMemory:
    """Fixed-latency main memory with open-row reuse and channel occupancy.

    Parameters
    ----------
    first_chunk_ns:
        Latency of the first chunk of an access (row activate + column read).
    subsequent_chunk_ns:
        Latency of each additional chunk of the line.
    chunk_bytes:
        Width of the memory channel.
    row_bytes:
        Size of a DRAM row; accesses within the same row as the previous
        access to the same bank skip the activate portion.
    banks:
        Number of independent banks.
    """

    def __init__(
        self,
        *,
        first_chunk_ns: float = 80.0,
        subsequent_chunk_ns: float = 2.0,
        chunk_bytes: int = 8,
        row_bytes: int = 4096,
        banks: int = 4,
        open_row_fraction: float = 0.4,
    ) -> None:
        if banks < 1:
            raise ValueError("memory needs at least one bank")
        self._first_chunk_ps = ns_to_ps(first_chunk_ns)
        self._subsequent_chunk_ps = ns_to_ps(subsequent_chunk_ns)
        self._chunk_bytes = chunk_bytes
        self._row_bytes = row_bytes
        self._banks = banks
        self._open_row_fraction = open_row_fraction
        self._open_rows: list[int | None] = [None] * banks
        self._channel_free_at: Picoseconds = 0
        #: Per line size: the fill latency with the row closed and open, and
        #: the channel's transfer time.
        self._fill_times: dict[int, tuple[Picoseconds, Picoseconds, Picoseconds]] = {}
        self.stats = MemoryStats()

    def line_fill_latency_ps(self, line_bytes: int, *, row_hit: bool = False) -> Picoseconds:
        """Raw latency to fill a line of *line_bytes*, ignoring contention."""
        chunks = max(1, line_bytes // self._chunk_bytes)
        first = self._first_chunk_ps
        if row_hit:
            first = int(first * self._open_row_fraction)
        return first + (chunks - 1) * self._subsequent_chunk_ps

    def access(self, address: int, line_bytes: int, now_ps: Picoseconds) -> Picoseconds:
        """Perform an access at *now_ps* and return its completion time."""
        row = address // self._row_bytes
        bank = row % self._banks
        row_hit = self._open_rows[bank] == row
        self._open_rows[bank] = row
        times = self._fill_times.get(line_bytes)
        if times is None:
            times = self._fill_times[line_bytes] = (
                self.line_fill_latency_ps(line_bytes),
                self.line_fill_latency_ps(line_bytes, row_hit=True),
                # The channel is busy only for the data-transfer portion of
                # the access.
                max(1, line_bytes // self._chunk_bytes) * self._subsequent_chunk_ps,
            )
        closed_row, open_row, transfer = times
        start = max(now_ps, self._channel_free_at)
        self._channel_free_at = start + transfer
        self.stats.accesses += 1
        return start + (open_row if row_hit else closed_row)
