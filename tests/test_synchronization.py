"""Tests for clock-domain synchronisation and the PLL model."""

import pytest
from hypothesis import given, strategies as st

from repro.clocks import DomainClock
from repro.core import PLLModel, SynchronizationModel
from repro.engine import SimulationJob, SpecKind, run_job
from repro.workloads import get_workload


class TestSynchronizationModel:
    def test_disabled_model_is_free(self):
        model = SynchronizationModel(enabled=False)
        producer = DomainClock("a", 1.0)
        consumer = DomainClock("b", 1.3)
        assert model.transfer(12_345, producer, consumer) == 12_345
        assert model.stats.transfers == 0

    def test_same_clock_is_free(self):
        model = SynchronizationModel(enabled=True)
        clock = DomainClock("a", 1.0)
        assert model.transfer(777, clock, clock) == 777

    def test_transfer_aligns_to_consumer_edge(self):
        model = SynchronizationModel(enabled=True)
        producer = DomainClock("a", 1.0)   # 1000 ps period
        consumer = DomainClock("b", 0.5)   # 2000 ps period
        # Event at 900 ps: next consumer edge is 2000 ps, comfortably outside
        # the 30% window (0.3 * 1000 = 300 ps).
        assert model.transfer(900, producer, consumer) == 2000

    def test_transfer_penalty_when_edges_close(self):
        model = SynchronizationModel(enabled=True)
        producer = DomainClock("a", 1.0)
        consumer = DomainClock("b", 0.5)
        # Event at 1900 ps: consumer edge at 2000 ps is only 100 ps away,
        # inside the 300 ps window, so one extra consumer cycle is charged.
        assert model.transfer(1900, producer, consumer) == 4000
        assert model.stats.penalties == 1

    def test_fifo_crossing_skips_penalty(self):
        model = SynchronizationModel(enabled=True)
        producer = DomainClock("a", 1.0)
        consumer = DomainClock("b", 0.5)
        assert model.transfer(1900, producer, consumer, fifo=True) == 2000

    def test_window_fraction_validation(self):
        with pytest.raises(ValueError):
            SynchronizationModel(window_fraction=1.5)


class TestTransferBoundaries:
    """Edge cases of the arbitration-window model: exact edge coincidence,
    integer truncation of the window, and mid-run frequency changes."""

    def test_event_exactly_on_consumer_edge_pays_penalty(self):
        # An event landing exactly on the capture edge is the worst case for
        # the synchroniser: the margin is zero, inside any non-zero window.
        model = SynchronizationModel(enabled=True)
        producer = DomainClock("a", 1.0)  # 1000 ps
        consumer = DomainClock("b", 0.5)  # 2000 ps
        assert model.transfer(2000, producer, consumer) == 4000
        assert model.stats.penalties == 1

    def test_event_exactly_on_edge_with_zero_window_is_free(self):
        model = SynchronizationModel(enabled=True, window_fraction=0.0)
        producer = DomainClock("a", 1.0)
        consumer = DomainClock("b", 0.5)
        assert model.transfer(2000, producer, consumer) == 2000
        assert model.stats.penalties == 0

    def test_window_is_truncated_to_integer_picoseconds(self):
        # 0.333 * 1000 ps = 333.0 exactly after int(): a margin of exactly
        # 333 ps is *outside* the window (edge - event < window is strict),
        # 332 ps is inside.
        model = SynchronizationModel(enabled=True, window_fraction=0.333)
        producer = DomainClock("a", 1.0)   # 1000 ps (the faster clock)
        consumer = DomainClock("b", 0.5)   # 2000 ps
        assert model.transfer(2000 - 333, producer, consumer) == 2000
        assert model.stats.penalties == 0
        assert model.transfer(2000 - 332, producer, consumer) == 4000
        assert model.stats.penalties == 1

    def test_transfer_spanning_a_frequency_change(self):
        # The consumer re-locks to half frequency after consuming one edge:
        # the new period applies from the next edge onward, and the transfer
        # model sees exactly what the hardware would.
        model = SynchronizationModel(enabled=True)
        producer = DomainClock("a", 1.0)   # 1000 ps
        consumer = DomainClock("b", 1.0)   # 1000 ps, edges 0, 1000, ...
        consumer.advance()                 # next edge at 1000
        consumer.set_frequency(0.5)        # 2000 ps from the next edge on
        # Event at 1500 ps: the next consumer edge is 1000 + 2000 = 3000 ps
        # (not the pre-change 2000 ps), margin 1500 ps > window 300 ps.
        assert model.transfer(1500, producer, consumer) == 3000
        assert model.stats.penalties == 0
        # Inside the window relative to the post-change edge: penalty is one
        # *new-period* consumer cycle.
        assert model.transfer(2900, producer, consumer) == 5000
        assert model.stats.penalties == 1


class TestJitteredTransfers:
    """After the jitter rework every cross-domain transfer time must coincide
    with an edge the consumer clock actually produces."""

    @staticmethod
    def _actual_edges(template_kwargs, up_to):
        clock = DomainClock(**template_kwargs)
        edges = {clock.next_edge}
        while clock.next_edge <= up_to:
            edges.add(clock.advance())
        return edges

    @given(st.integers(min_value=0, max_value=100_000))
    def test_transfer_lands_on_a_real_consumer_edge(self, event_time):
        consumer_kwargs = dict(
            name="consumer", frequency_ghz=0.7, jitter_fraction=0.1, seed=9
        )
        model = SynchronizationModel(enabled=True)
        producer = DomainClock("producer", 1.3, jitter_fraction=0.1, seed=9)
        consumer = DomainClock(**consumer_kwargs)
        arrival = model.transfer(event_time, producer, consumer)
        assert arrival >= event_time
        assert arrival in self._actual_edges(consumer_kwargs, arrival)

    @given(st.integers(min_value=0, max_value=100_000))
    def test_penalised_transfer_lands_on_the_following_real_edge(self, event_time):
        # Force every transfer into the unsafe window with a near-full-period
        # window fraction, then check the penalty edge is the true successor.
        consumer_kwargs = dict(
            name="consumer", frequency_ghz=0.9, jitter_fraction=0.2, seed=5
        )
        model = SynchronizationModel(enabled=True, window_fraction=0.99)
        producer = DomainClock("producer", 1.1)
        consumer = DomainClock(**consumer_kwargs)
        capture = consumer.edge_at_or_after(event_time)
        arrival = model.transfer(event_time, producer, consumer)
        edges = sorted(self._actual_edges(consumer_kwargs, arrival + 1))
        assert arrival in edges
        if arrival != capture:  # the penalty path fired
            assert edges[edges.index(capture) + 1] == arrival


class TestPLLModel:
    def test_paper_mode_within_bounds(self):
        pll = PLLModel(interval_scaled=False, seed=3)
        for _ in range(100):
            lock = pll.sample_lock_ps()
            assert 10_000_000 <= lock <= 20_000_000

    def test_interval_scaled_mode_tracks_interval(self):
        pll = PLLModel(interval_scaled=True, seed=3)
        for _ in range(50):
            lock = pll.sample_lock_ps(1_000_000)
            assert 700_000 <= lock <= 1_300_000

    def test_interval_scaled_without_reference_falls_back(self):
        pll = PLLModel(interval_scaled=True, seed=3)
        assert pll.sample_lock_ps(None) >= 10_000_000

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PLLModel(mean_us=5.0, min_us=10.0, max_us=20.0)

    def test_determinism_with_seed(self):
        first = [PLLModel(seed=9).sample_lock_ps() for _ in range(5)]
        second = [PLLModel(seed=9).sample_lock_ps() for _ in range(5)]
        assert first == second


#: MCD machines whose crossings the processor synchronises inline (commit,
#: the skip's bulk commit attempts, address generation), not through
#: :class:`SynchronizationModel`'s own ``transfer``.
MCD_MACHINES = {
    "fixed": dict(spec_kind=SpecKind.ADAPTIVE),
    "fixed_jittered": dict(spec_kind=SpecKind.ADAPTIVE, jitter_fraction=0.05),
    "phase": dict(spec_kind=SpecKind.BASE_ADAPTIVE, use_b_partitions=True, phase_adaptive=True),
    "phase_jittered": dict(
        spec_kind=SpecKind.BASE_ADAPTIVE,
        use_b_partitions=True,
        phase_adaptive=True,
        jitter_fraction=0.05,
    ),
}


def gcc_run(sync_window_fraction, **machine):
    return run_job(
        SimulationJob(
            profile=get_workload("gcc"),
            window=1_500,
            warmup=1_500,
            sync_window_fraction=sync_window_fraction,
            **machine,
        )
    )


class TestProcessorWindowFraction:
    """The window fraction drives the penalties a whole run records."""

    @pytest.mark.parametrize("machine", sorted(MCD_MACHINES))
    def test_penalties_follow_the_window_fraction(self, machine):
        penalties = {}
        for fraction in (0.0, 0.3, 0.95):
            result = gcc_run(fraction, **MCD_MACHINES[machine])
            assert result.sync_penalties <= result.sync_transfers
            penalties[fraction] = result.sync_penalties
        assert penalties[0.0] == 0
        assert penalties[0.95] > penalties[0.3]

    def test_synchronous_machine_has_no_crossings(self):
        result = gcc_run(0.95, spec_kind=SpecKind.BEST_SYNCHRONOUS)
        assert result.sync_transfers == result.sync_penalties == 0
