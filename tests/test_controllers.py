"""Tests for the phase-adaptive control algorithms (Section 3 of the paper)."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.caches import AccountingCache
from repro.clocks.time import ns_to_ps
from repro.core import MCDProcessor, base_adaptive_spec
from repro.core.controllers import (
    AdaptiveControlParams,
    CacheLevel,
    ILPTracker,
    PhaseAdaptiveCacheController,
    PhaseAdaptiveQueueController,
)
from repro.core.controllers.queue_controller import TIMESTAMP_BITS
from repro.engine import make_trace
from repro.isa.registers import NO_REGISTER, TOTAL_LOGICAL_REGS, register_index
from repro.pipeline.dyninst import DynInst
from repro.timing.tables import ADAPTIVE_DCACHE_CONFIGS, ISSUE_QUEUE_SIZES


def make_dcache_controller(interval=1000, hysteresis=0.0, consecutive=1):
    geometry_l1 = ADAPTIVE_DCACHE_CONFIGS[-1].l1
    geometry_l2 = ADAPTIVE_DCACHE_CONFIGS[-1].l2
    l1 = AccountingCache(geometry_l1, a_ways=1, b_enabled=True, name="L1D")
    l2 = AccountingCache(geometry_l2, a_ways=1, b_enabled=True, name="L2")
    controller = PhaseAdaptiveCacheController(
        name="dcache",
        levels=(
            CacheLevel(
                cache=l1,
                latencies=tuple(c.l1_latency for c in ADAPTIVE_DCACHE_CONFIGS),
                a_ways=tuple(c.ways for c in ADAPTIVE_DCACHE_CONFIGS),
            ),
            CacheLevel(
                cache=l2,
                latencies=tuple(c.l2_latency for c in ADAPTIVE_DCACHE_CONFIGS),
                a_ways=tuple(c.ways for c in ADAPTIVE_DCACHE_CONFIGS),
            ),
        ),
        frequencies_ghz=tuple(c.frequency_ghz for c in ADAPTIVE_DCACHE_CONFIGS),
        beyond_last_level_ps=ns_to_ps(94.0),
        interval_instructions=interval,
        hysteresis=hysteresis,
        consecutive_decisions_required=consecutive,
    )
    return controller, l1, l2


def renamed(dest, sources=(), *, fp=False):
    """A renamed instruction, as much of one as the ILP tracker reads."""
    inst = DynInst()
    inst.dest = dest
    inst.source_count = len(sources)
    inst.src0, inst.src1 = (tuple(sources) + (NO_REGISTER, NO_REGISTER))[:2]
    inst.is_fp = fp
    return inst


class TestCacheController:
    def test_interval_accounting(self, tiny_profile):
        # The processor counts commits; both controllers decide on the
        # commit that ends each interval, and only then.
        processor = MCDProcessor(
            base_adaptive_spec(),
            phase_adaptive=True,
            control=AdaptiveControlParams(interval_instructions=250),
        )
        result = processor.run(
            make_trace(tiny_profile, seed=11),
            max_instructions=1000,
            warmup_instructions=500,
        )
        for controller in (processor._dcache_controller, processor._icache_controller):
            assert len(controller.decisions) == 4
            assert {d.interval_instructions for d in controller.decisions} == {250}
            assert [
                change.committed_instructions
                for change in result.configuration_changes
                if change.structure == controller.name
            ] == [250, 500, 750, 1000]

    def test_small_working_set_prefers_smallest_config(self):
        controller, l1, _ = make_dcache_controller()
        # Everything hits in the MRU way: the fast, small configuration wins.
        for _ in range(50):
            for block in range(8):
                l1.access(0x1000 + block * 64)
        decision = controller.evaluate_interval()
        assert decision.best_index == 0

    def test_capacity_bound_working_set_prefers_larger_config(self):
        controller, l1, l2 = make_dcache_controller()
        sets = l1.num_sets
        # Four conflicting blocks per set, cycled repeatedly: with one way in
        # the A partition every re-touch is a B hit, while four ways would
        # capture them all.
        for _ in range(20):
            for way in range(4):
                for set_index in range(0, 64):
                    l1.access(0x1000 + set_index * 64 + way * sets * 64)
        decision = controller.evaluate_interval()
        assert decision.best_index >= 2

    def test_decision_resets_interval_counters(self):
        controller, l1, _ = make_dcache_controller()
        l1.access(0x100)
        decision = controller.evaluate_interval()
        assert decision.interval_instructions == 1000
        assert l1.interval_stats.accesses == 0

    def test_hysteresis_blocks_marginal_changes(self):
        def marginal_interval(l1):
            sets = l1.num_sets
            # Mostly A hits plus a sprinkle of B hits: a larger configuration
            # is slightly, but not decisively, cheaper.
            for _ in range(6):
                for set_index in range(64):
                    l1.access(0x1000 + set_index * 64)
            for _ in range(2):
                for set_index in range(20):
                    l1.access(0x1000 + set_index * 64 + sets * 64)
                for set_index in range(20):
                    l1.access(0x1000 + set_index * 64)

        eager_controller, eager_l1, _ = make_dcache_controller(hysteresis=0.0)
        marginal_interval(eager_l1)
        eager_decision = eager_controller.evaluate_interval()

        guarded_controller, guarded_l1, _ = make_dcache_controller(hysteresis=0.45)
        marginal_interval(guarded_l1)
        guarded_decision = guarded_controller.evaluate_interval()

        # Whatever the eager controller does, the strongly guarded one must
        # stay at the current configuration unless the win is overwhelming.
        assert guarded_decision.best_index == 0
        assert eager_decision.best_index >= guarded_decision.best_index

    def test_consecutive_decisions_required(self):
        controller, l1, l2 = make_dcache_controller(consecutive=2)
        sets = l1.num_sets

        def capacity_bound_interval():
            for _ in range(20):
                for way in range(4):
                    for set_index in range(64):
                        l1.access(0x1000 + set_index * 64 + way * sets * 64)

        capacity_bound_interval()
        first = controller.evaluate_interval()
        assert first.best_index == 0  # change deferred
        capacity_bound_interval()
        second = controller.evaluate_interval()
        assert second.best_index >= 2  # persistent need: change now allowed

    def test_costs_cover_every_configuration(self):
        controller, l1, _ = make_dcache_controller()
        l1.access(0x40)
        decision = controller.evaluate_interval()
        assert len(decision.costs_ps) == len(ADAPTIVE_DCACHE_CONFIGS)
        assert all(cost >= 0 for cost in decision.costs_ps)

    def test_validation(self):
        with pytest.raises(ValueError):
            PhaseAdaptiveCacheController(
                name="broken",
                levels=(),
                frequencies_ghz=(1.0,),
                beyond_last_level_ps=0,
            )


class TestILPTracker:
    def _observe_chain(self, tracker, length, stride):
        """Feed a dependence chain where each op depends on the op *stride*
        back; return what each observe returned."""
        closes = []
        recent: list[int] = []
        for index in range(length):
            dest = register_index(f"r{8 + index % 20}")
            if len(recent) >= stride:
                sources = (recent[-stride],)
            else:
                sources = (register_index("r1"),)
            closes.append(tracker.observe(renamed(dest, sources)))
            recent.append(dest)
        return closes

    def test_windows_complete_after_n_tracked_instructions(self):
        tracker = ILPTracker()
        closes = self._observe_chain(tracker, 64, stride=4)
        assert closes == [False] * 63 + [True]

    def test_serial_code_measures_low_ilp(self):
        tracker = ILPTracker()
        self._observe_chain(tracker, 64, stride=1)
        estimates = tracker.estimates(fp=False)
        assert estimates[16] <= 2.0
        assert estimates[64] <= 2.0

    def test_parallel_code_measures_high_ilp(self):
        tracker = ILPTracker()
        self._observe_chain(tracker, 64, stride=20)
        estimates = tracker.estimates(fp=False)
        assert estimates[64] >= 8.0

    def test_reset_clears_state(self):
        tracker = ILPTracker()
        self._observe_chain(tracker, 64, stride=1)
        tracker.reset()
        assert tracker.estimates(fp=False) == dict.fromkeys(ISSUE_QUEUE_SIZES, 1.0)
        assert self._observe_chain(tracker, 64, stride=1) == [False] * 63 + [True]

    def test_timestamps_saturate_at_bit_width(self):
        tracker = ILPTracker()
        # A very long serial chain: the 4-bit tracker saturates at 15.
        self._observe_chain(tracker, 70, stride=1)
        estimates = tracker.estimates(fp=False)
        assert estimates[16] >= 16 / 15 - 1e-9

    def test_the_other_class_closes_the_window(self):
        # 64 FP instructions and no integer one: the FP class fills every
        # window, so the integer class's estimates are those of empty ones.
        tracker = ILPTracker()
        closes = [tracker.observe(renamed(40, (40,), fp=True)) for _ in range(64)]
        assert closes == [False] * 63 + [True]
        assert tracker.estimates(fp=False) == dict.fromkeys(ISSUE_QUEUE_SIZES, 1.0)
        assert tracker.estimates(fp=True) == {16: 16 / 15, 32: 32 / 31, 48: 48 / 48, 64: 64 / 63}


class _SizeTracker:
    """The per-size tracker the shared one replaced, kept as its reference.

    One per candidate queue size and per controller (eight in all): its own
    timestamps saturating at its own width, and a window that closes when
    either class reaches its size.
    """

    def __init__(self, size):
        self.size = size
        self.saturation = (1 << TIMESTAMP_BITS[size]) - 1
        self.reset()

    def reset(self):
        self.timestamps = [0] * TOTAL_LOGICAL_REGS
        self.max_timestamp = 0
        self.tracked_count = 0
        self.other_count = 0
        self.complete = False

    def observe(self, dest, sources, tracked):
        if self.complete:
            return
        height = 0
        for source in sources:
            value = self.timestamps[source]
            if value > height:
                height = value
        height = min(height + 1, self.saturation)
        if dest is not None:
            self.timestamps[dest] = height
        if tracked:
            self.tracked_count += 1
            if height > self.max_timestamp:
                self.max_timestamp = height
        else:
            self.other_count += 1
        if self.tracked_count >= self.size or self.other_count >= self.size:
            self.complete = True

    @property
    def ilp_estimate(self):
        if self.max_timestamp == 0:
            return float(self.tracked_count) if self.tracked_count else 1.0
        return self.tracked_count / self.max_timestamp


_registers = st.integers(0, TOTAL_LOGICAL_REGS - 1)
# One instruction: destination (or none), 0-2 sources, FP class or not.
_instructions = st.tuples(
    st.one_of(st.just(NO_REGISTER), _registers),
    st.lists(_registers, max_size=2),
    st.booleans(),
).map(lambda inst: [inst])
# A serial chain through one register, long enough to saturate every width,
# with the class drawn per instruction.
_chains = st.tuples(_registers, st.lists(st.booleans(), min_size=1, max_size=80)).map(
    lambda chain: [(chain[0], [chain[0]], fp) for fp in chain[1]]
)
_streams = st.lists(st.one_of(_instructions, _chains), max_size=40).map(
    lambda segments: [inst for segment in segments for inst in segment]
)


@given(stream=_streams)
@example(stream=[(8, [8], False)] * 70)  # the saturation case of the tests above
@settings(max_examples=60, deadline=5_000)
def test_one_tracker_matches_the_eight_it_replaces(stream):
    tracker = ILPTracker()
    reference = {fp: [_SizeTracker(size) for size in ISSUE_QUEUE_SIZES] for fp in (False, True)}
    for dest, sources, is_fp in stream:
        for tracked_fp, trackers in reference.items():
            for size_tracker in trackers:
                size_tracker.observe(
                    dest if dest >= 0 else None, tuple(sources), is_fp == tracked_fp
                )
        closed = tracker.observe(renamed(dest, sources, fp=is_fp))
        # Both controllers' widest windows close on this instruction, or
        # neither does; every size reads the same estimate for both classes.
        assert closed == reference[False][-1].complete == reference[True][-1].complete
        for fp, trackers in reference.items():
            assert tracker.estimates(fp=fp) == {t.size: t.ilp_estimate for t in trackers}
        if closed:
            tracker.reset()
            for trackers in reference.values():
                for size_tracker in trackers:
                    size_tracker.reset()


class TestQueueController:
    def _run_windows(self, controller, stride, windows=4):
        tracker = ILPTracker()
        decisions = []
        for _ in range(windows):
            recent: list[int] = []
            done = False
            while not done:
                dest = register_index(f"r{8 + len(recent) % 20}")
                if len(recent) >= stride:
                    sources = (recent[-stride],)
                else:
                    sources = (register_index("r1"),)
                done = tracker.observe(renamed(dest, sources))
                recent.append(dest)
            decisions.append(controller.evaluate(tracker.estimates(fp=False)))
            tracker.reset()
        return decisions

    def test_serial_code_keeps_16_entry_queue(self):
        controller = PhaseAdaptiveQueueController(name="int", initial_size=16)
        decisions = self._run_windows(controller, stride=2)
        assert all(d.best_size == 16 for d in decisions)

    def test_highly_parallel_code_grows_the_queue(self):
        controller = PhaseAdaptiveQueueController(name="int", initial_size=16)
        decisions = self._run_windows(controller, stride=40, windows=6)
        assert decisions[-1].best_size > 16

    def test_consecutive_decision_damping(self):
        controller = PhaseAdaptiveQueueController(
            name="int", initial_size=16, consecutive_decisions_required=3
        )
        decisions = self._run_windows(controller, stride=40, windows=2)
        # Not enough consecutive windows yet: stays at 16.
        assert all(d.best_size == 16 for d in decisions)

    def test_scores_scale_ilp_by_frequency(self):
        controller = PhaseAdaptiveQueueController(name="int", initial_size=16)
        decisions = self._run_windows(controller, stride=2, windows=1)
        scores = decisions[0].scores
        assert set(scores) == {16, 32, 48, 64}
        assert scores[16] >= scores[64]

    def test_validation(self):
        with pytest.raises(ValueError):
            PhaseAdaptiveQueueController(name="x", hysteresis=0.9)
        with pytest.raises(ValueError):
            PhaseAdaptiveQueueController(name="x", consecutive_decisions_required=0)


class TestControlParams:
    def test_defaults_are_paper_values(self):
        params = AdaptiveControlParams()
        assert params.interval_instructions == 15_000
        assert params.pll_mean_us == 15.0
        assert params.memory_time_ns == pytest.approx(94.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveControlParams(interval_instructions=10)
        with pytest.raises(ValueError):
            AdaptiveControlParams(cache_hysteresis=0.9)
        with pytest.raises(ValueError):
            AdaptiveControlParams(queue_consecutive_decisions=0)

    def test_time_conversions(self):
        params = AdaptiveControlParams()
        assert params.memory_time_ps == 94_000
        assert params.icache_miss_time_ps == 20_000
