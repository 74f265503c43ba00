"""Tests for the picosecond time base and domain clocks."""

from contextlib import contextmanager
from unittest.mock import patch

import pytest
from hypothesis import given, strategies as st

import repro.clocks.clock as clock_module

from repro.clocks import (
    DomainClock,
    ghz_to_period_ps,
    ns_to_ps,
    period_ps_to_ghz,
    ps_to_ns,
    us_to_ps,
)
from repro.clocks.clock import DEFAULT_CACHE_EDGE_TABLES, clear_edge_tables, jitter_steps


class TestTimeConversions:
    def test_ghz_to_period(self):
        assert ghz_to_period_ps(1.0) == 1000
        assert ghz_to_period_ps(2.0) == 500

    def test_period_to_ghz_roundtrip(self):
        assert period_ps_to_ghz(ghz_to_period_ps(1.4)) == pytest.approx(1.4, rel=1e-2)

    def test_ns_and_us_conversions(self):
        assert ns_to_ps(80.0) == 80_000
        assert us_to_ps(15.0) == 15_000_000
        assert ps_to_ns(1_500) == pytest.approx(1.5)

    def test_invalid_frequency_rejected(self):
        with pytest.raises(ValueError):
            ghz_to_period_ps(0.0)
        with pytest.raises(ValueError):
            period_ps_to_ghz(0)

    @given(st.floats(min_value=0.2, max_value=5.0))
    def test_roundtrip_is_close_for_any_frequency(self, ghz):
        assert period_ps_to_ghz(ghz_to_period_ps(ghz)) == pytest.approx(ghz, rel=0.01)


class TestDomainClock:
    def test_edges_advance_by_period(self):
        clock = DomainClock("test", 1.0)
        assert clock.next_edge == 0
        clock.advance()
        assert clock.next_edge == 1000
        clock.advance()
        assert clock.next_edge == 2000

    def test_cycle_count_tracks_advances(self):
        clock = DomainClock("test", 2.0)
        for _ in range(5):
            clock.advance()
        assert clock.cycle_count == 5

    def test_frequency_change_takes_effect_next_edge(self):
        clock = DomainClock("test", 1.0)
        clock.advance()  # next edge at 1000
        clock.set_frequency(2.0)
        clock.advance()
        assert clock.next_edge == 1500

    def test_edge_at_or_after_exact_edge(self):
        clock = DomainClock("test", 1.0)
        assert clock.edge_at_or_after(0) == 0

    def test_edge_at_or_after_future_time(self):
        clock = DomainClock("test", 1.0)
        assert clock.edge_at_or_after(1) == 1000
        assert clock.edge_at_or_after(1000) == 1000
        assert clock.edge_at_or_after(2500) == 3000

    def test_edge_at_or_after_does_not_advance(self):
        clock = DomainClock("test", 1.0)
        clock.edge_at_or_after(5000)
        assert clock.next_edge == 0

    def test_jitter_bounds(self):
        clock = DomainClock("test", 1.0, jitter_fraction=0.1, seed=42)
        previous = clock.next_edge
        for _ in range(200):
            current = clock.advance()
            step = current - previous
            assert 900 <= step <= 1100
            previous = current

    def test_jitter_fraction_validation(self):
        with pytest.raises(ValueError):
            DomainClock("test", 1.0, jitter_fraction=0.6)

    def test_set_period_validation(self):
        clock = DomainClock("test", 1.0)
        with pytest.raises(ValueError):
            clock.set_period_ps(0)

    @given(st.integers(min_value=0, max_value=10**9))
    def test_edge_at_or_after_is_aligned_and_not_early(self, time_ps):
        clock = DomainClock("prop", 1.6)
        edge = clock.edge_at_or_after(time_ps)
        assert edge >= time_ps
        assert (edge - clock.next_edge) % clock.period_ps == 0

    @pytest.mark.parametrize("time_ps", [0, 1, 1000, 1001, 2500])
    def test_skip_edges_before_consumes_strictly_earlier_edges(self, time_ps):
        clock = DomainClock("test", 1.0)  # edges at 0, 1000, 2000, ...
        walker = DomainClock("test", 1.0)
        assert clock.skip_edges_before(time_ps) == advances_until(walker, time_ps)
        assert clock.next_edge == walker.next_edge
        assert clock.cycle_count == walker.cycle_count


def jittered_clock(**kwargs) -> DomainClock:
    kwargs.setdefault("jitter_fraction", 0.1)
    kwargs.setdefault("seed", 42)
    return DomainClock("jitter-test", 1.0, **kwargs)


def advances_until(walker, time_ps: int) -> int:
    """Advance *walker* one edge at a time until its next edge is at or after
    *time_ps*; return the number of edges consumed."""
    count = 0
    while walker.next_edge < time_ps:
        walker.advance()
        count += 1
    return count


class StepwiseClock:
    """A jittered clock without edge tables: every query walks the offset
    stream one :func:`jitter_steps` evaluation at a time from ``next_edge``.

    It borrows only the jitter key, fraction and current period of a twin
    :class:`DomainClock` and keeps its own edge state, so it is an
    independent reference for the tabled clock.
    """

    def __init__(self, **kwargs) -> None:
        self.stream = jittered_clock(**kwargs)
        self.next_edge = self.stream.next_edge
        self.cycle_count = 0

    def step(self, index: int) -> int:
        stream = self.stream
        (step,) = jitter_steps(
            stream._jitter_key, stream.jitter_fraction, stream.period_ps, index, index + 1
        )
        return step

    def advance(self) -> int:
        self.cycle_count += 1
        self.next_edge += self.step(self.cycle_count)
        return self.next_edge

    def edge_at_or_after(self, time_ps: int) -> int:
        edge, index = self.next_edge, self.cycle_count
        while edge < time_ps:
            index += 1
            edge += self.step(index)
        return edge

    def skip_edges_before(self, time_ps: int) -> int:
        return advances_until(self, time_ps)

    def set_frequency(self, frequency_ghz: float) -> None:
        self.stream.set_frequency(frequency_ghz)


#: One step of an interleaved clock workload: an operation and its argument.
#: Query times are offsets from the clock's ``next_edge``, so they land both
#: inside and beyond the edges tabled so far; ``advance`` repeats its
#: argument many times.
clock_operation = st.one_of(
    st.tuples(st.just("advance"), st.integers(min_value=1, max_value=40)),
    st.tuples(
        st.sampled_from(["edge_at_or_after", "skip_edges_before"]),
        st.integers(min_value=-2_000, max_value=80_000),
    ),
    st.tuples(st.just("set_frequency"), st.sampled_from([0.5, 0.8, 1.0, 1.6, 2.5])),
)
clock_operations = st.lists(clock_operation, max_size=40)


def apply_in_step(clock: DomainClock, reference: StepwiseClock, name: str, argument) -> None:
    """Apply one operation to *clock* and *reference*; they must agree."""
    if name == "advance":
        for _ in range(argument):
            assert clock.advance() == reference.advance()
    elif name == "set_frequency":
        clock.set_frequency(argument)
        reference.set_frequency(argument)
    else:
        time_ps = reference.next_edge + argument
        assert getattr(clock, name)(time_ps) == getattr(reference, name)(time_ps)
    assert clock.next_edge == reference.next_edge
    assert clock.cycle_count == reference.cycle_count


@contextmanager
def recorded_steps():
    """Record the index of every jittered step evaluated inside the block."""
    indices: list[int] = []

    def recording(key, fraction, period_ps, first, stop):
        indices.extend(range(first, stop))
        return evaluate(key, fraction, period_ps, first, stop)

    evaluate = clock_module.jitter_steps
    clock_module.jitter_steps = recording
    try:
        yield indices
    finally:
        clock_module.jitter_steps = evaluate


class TestJitteredClock:
    """The jitter stream must be index-addressable: every prediction API
    (edge_at_or_after, skip_edges_before) must agree exactly with the edge
    times a sequence of advance() calls actually produces."""

    def test_stream_reproducible_across_instances(self):
        first = [jittered_clock().advance() for _ in range(1)]
        a, b = jittered_clock(), jittered_clock()
        edges_a = [a.advance() for _ in range(300)]
        edges_b = [b.advance() for _ in range(300)]
        assert edges_a == edges_b
        assert first[0] == edges_a[0]

    def test_different_seed_or_name_changes_stream(self):
        base = [jittered_clock().advance() for _ in range(50)]
        reseeded = jittered_clock(seed=43)
        renamed = DomainClock("other-name", 1.0, jitter_fraction=0.1, seed=42)
        assert [reseeded.advance() for _ in range(50)] != base
        assert [renamed.advance() for _ in range(50)] != base

    def test_skip_edges_before_matches_individual_advances(self):
        bulk, stepwise = jittered_clock(), jittered_clock()
        for _ in range(7):
            stepwise.advance()
        # Every edge strictly before the seventh advance's edge: seven edges.
        assert bulk.skip_edges_before(stepwise.next_edge) == 7
        assert bulk.next_edge == stepwise.next_edge
        assert bulk.cycle_count == stepwise.cycle_count
        # And the streams stay locked after the bulk skip.
        assert [bulk.advance() for _ in range(20)] == [
            stepwise.advance() for _ in range(20)
        ]

    def test_skip_then_advance_equals_pure_advances(self):
        mixed, pure = jittered_clock(), jittered_clock()
        edges = [pure.advance() for _ in range(9)]
        assert mixed.skip_edges_before(edges[2]) == 3
        mixed.advance()
        assert mixed.skip_edges_before(edges[8]) == 5
        assert mixed.next_edge == pure.next_edge
        assert mixed.cycle_count == pure.cycle_count

    @given(st.integers(min_value=0, max_value=200_000))
    def test_edge_at_or_after_returns_a_true_jittered_edge(self, time_ps):
        clock = jittered_clock()
        probe = clock.edge_at_or_after(time_ps)
        assert probe >= time_ps
        assert probe >= clock.next_edge
        # Enumerate the real edge sequence with an identical clock.
        walker = jittered_clock()
        actual_edges = {walker.next_edge}
        while walker.next_edge < probe:
            actual_edges.add(walker.advance())
        assert probe in actual_edges
        # And the probe must be the *first* such edge.
        assert not any(time_ps <= edge < probe for edge in actual_edges)

    @given(st.integers(min_value=0, max_value=200_000))
    def test_skip_edges_before_agrees_with_stepwise_advances(self, time_ps):
        clock = jittered_clock()
        walker = jittered_clock()
        count = clock.skip_edges_before(time_ps)
        assert count == advances_until(walker, time_ps)
        assert clock.cycle_count == walker.cycle_count == count
        assert clock.next_edge == walker.next_edge
        # Every skipped edge was strictly before time_ps, and none remaining is.
        assert clock.next_edge >= time_ps or count == 0
        assert clock.skip_edges_before(time_ps) == 0

    def test_skip_edges_before_on_a_jitter_free_clock(self):
        clock = DomainClock("test", 1.0)  # edges at 0, 1000, 2000, ...
        assert clock.skip_edges_before(2500) == 3
        assert clock.next_edge == 3000
        assert clock.cycle_count == 3
        assert clock.skip_edges_before(3000) == 0

    def test_edge_at_or_after_does_not_advance_jittered_clock(self):
        clock = jittered_clock()
        clock.edge_at_or_after(50_000)
        assert clock.next_edge == 0
        assert clock.cycle_count == 0

    def test_jitter_respects_frequency_change(self):
        clock = jittered_clock()
        clock.advance()
        clock.set_frequency(2.0)  # 500 ps nominal
        previous = clock.next_edge
        for _ in range(100):
            step = clock.advance() - previous
            previous = clock.next_edge
            assert 450 <= step <= 550  # 500 ps +- 5% (jitter_fraction 0.1)


class TestJitterMemo:
    """The per-process tables of jittered edges are invisible: a tabled
    clock reports exactly what :class:`StepwiseClock` computes edge by edge,
    whatever other clocks have read from its tables."""

    @given(
        jitter=st.sampled_from([0.05, 0.1, 0.45]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        operations=clock_operations,
    )
    def test_interleaved_operations_match_the_stepwise_reference(self, jitter, seed, operations):
        clock = jittered_clock(jitter_fraction=jitter, seed=seed)
        reference = StepwiseClock(jitter_fraction=jitter, seed=seed)
        for name, argument in operations:
            apply_in_step(clock, reference, name, argument)

    @given(
        jitter=st.sampled_from([0.05, 0.45]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        operations=st.lists(
            st.tuples(st.integers(min_value=0, max_value=2), clock_operation), max_size=60
        ),
    )
    def test_clocks_sharing_tables_match_independent_references(self, jitter, seed, operations):
        clear_edge_tables()
        clocks = [jittered_clock(jitter_fraction=jitter, seed=seed) for _ in range(3)]
        references = [StepwiseClock(jitter_fraction=jitter, seed=seed) for _ in range(3)]
        for which, (name, argument) in operations:
            apply_in_step(clocks[which], references[which], name, argument)

    def test_advancing_past_the_memo_end_then_looking_ahead(self):
        clear_edge_tables()
        clock, reference = jittered_clock(), StepwiseClock()
        clock.edge_at_or_after(5_000)  # tables about five edges
        for _ in range(12):  # ...then runs past them
            assert clock.advance() == reference.advance()
        time_ps = reference.next_edge + 7_500
        assert clock.edge_at_or_after(time_ps) == reference.edge_at_or_after(time_ps)
        assert clock.skip_edges_before(time_ps) == reference.skip_edges_before(time_ps)
        assert clock.next_edge == reference.next_edge

    def test_frequency_change_drops_memoised_edges(self):
        clock, reference = jittered_clock(), StepwiseClock()
        clock.edge_at_or_after(20_000)  # tabled under the 1 GHz period
        clock.advance()
        reference.advance()
        clock.set_frequency(2.0)
        reference.set_frequency(2.0)
        time_ps = reference.next_edge + 9_000
        assert clock.edge_at_or_after(time_ps) == reference.edge_at_or_after(time_ps)
        assert [clock.advance() for _ in range(30)] == [reference.advance() for _ in range(30)]

    def test_frequency_change_evaluates_no_earlier_step(self):
        clear_edge_tables()
        clock = jittered_clock()
        clock.edge_at_or_after(clock.next_edge + 50_000)
        for _ in range(40):
            clock.advance()
        clock.skip_edges_before(clock.next_edge + 3_000)
        changed_at = clock.cycle_count
        with recorded_steps() as indices:
            clock.set_frequency(2.0)
            clock.edge_at_or_after(clock.next_edge + 10_000)
            for _ in range(30):
                clock.advance()
        assert indices and min(indices) == changed_at + 1

    def test_each_step_is_evaluated_once_per_process(self):
        clear_edge_tables()
        with recorded_steps() as first:
            leader = jittered_clock()
            leader.edge_at_or_after(40_000)
            edges = [leader.advance() for _ in range(60)]
        with recorded_steps() as second:
            follower = jittered_clock()
            assert follower.edge_at_or_after(40_000) == jittered_clock().edge_at_or_after(40_000)
            assert [follower.advance() for _ in range(60)] == edges
        assert sorted(first) == list(range(1, len(first) + 1))
        assert second == []

    @pytest.mark.parametrize("jitter", [0.05, 0.45])
    def test_a_full_table_continues_where_it_left_off(self, jitter):
        clear_edge_tables()
        try:
            with patch.object(clock_module, "_SUM_LIMIT", 20_000):
                clock = jittered_clock(jitter_fraction=jitter)
                reference = StepwiseClock(jitter_fraction=jitter)
                # Past several full tables in one query, without advancing...
                time_ps = reference.next_edge + 75_000
                assert clock.edge_at_or_after(time_ps) == reference.edge_at_or_after(time_ps)
                assert clock.cycle_count == 0
                # ...then by single advances and by a skip across them.
                for name, argument in [
                    ("advance", 30),
                    ("skip_edges_before", 50_000),
                    ("set_frequency", 2.0),
                    ("advance", 70),
                    ("edge_at_or_after", 45_000),
                    ("skip_edges_before", 45_000),
                ]:
                    apply_in_step(clock, reference, name, argument)
                tables = list(clock_module._tables.values())
                assert all(max(table.sums) <= 20_000 for table in tables)
                assert sum(table.full for table in tables) >= 4
        finally:
            clear_edge_tables()

    def test_memo_stays_bounded_over_a_long_run(self):
        clear_edge_tables()
        clock = jittered_clock()
        reach = 200 * clock.period_ps
        # A chunk evaluates one step per whole period of the gap it bridges,
        # plus one, and a step is at most (1 + jitter/2) periods, so the
        # table ends at most this far past the furthest query.
        slack = int(reach * clock.jitter_fraction / 2) + 2 * clock.period_ps
        furthest = 0
        for cycle in range(20_000):
            furthest = clock.next_edge + reach
            clock.edge_at_or_after(furthest)
            if cycle % 1_000 == 999:
                clock.skip_edges_before(clock.next_edge + reach // 2)
            clock.advance()
            table = clock._table
            assert clock._base + table.sums[-1] <= furthest + slack
        assert clock.cycle_count > 20_000
        # Frequency changes start tables; the process keeps a bounded number.
        for cycle in range(3 * DEFAULT_CACHE_EDGE_TABLES):
            clock.set_frequency((0.8, 1.25)[cycle % 2])
            clock.edge_at_or_after(clock.next_edge + reach)
            clock.advance()
        assert len(clock_module._tables) == DEFAULT_CACHE_EDGE_TABLES
