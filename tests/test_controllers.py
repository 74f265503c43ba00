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
from repro.core.controllers.damping import DOWNSIZE_MARGIN
from repro.core.controllers.queue_controller import TIMESTAMP_BITS
from repro.engine import make_trace
from repro.isa.registers import NO_REGISTER, TOTAL_LOGICAL_REGS, register_index
from repro.obs.events import CONTROLLER_INTERVAL
from repro.obs.recorder import TraceRecorder
from repro.pipeline.dyninst import DynInst
from repro.timing.tables import ADAPTIVE_DCACHE_CONFIGS, ISSUE_QUEUE_SIZES
from test_processor import ListSink


def make_dcache_controller(**damping):
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
        **damping,
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
        events = ListSink()
        processor = MCDProcessor(
            base_adaptive_spec(),
            phase_adaptive=True,
            control=AdaptiveControlParams(interval_instructions=250),
            recorder=TraceRecorder([events]),
        )
        result = processor.run(
            make_trace(tiny_profile, seed=11),
            max_instructions=1000,
            warmup_instructions=500,
        )
        for controller in (processor._dcache_controller, processor._icache_controller):
            assert len(controller.decisions) == 4
            assert [
                event.data["interval_instructions"]
                for event in events
                if event.type == CONTROLLER_INTERVAL and event.data["structure"] == controller.name
            ] == [250] * 4
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
        assert decision.best == 0

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
        assert decision.best >= 2

    def test_decision_resets_interval_counters(self):
        controller, l1, _ = make_dcache_controller()
        l1.access(0x100)
        controller.evaluate_interval()
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
        assert guarded_decision.best == 0
        assert eager_decision.best >= guarded_decision.best

    def test_consecutive_decisions_required(self):
        controller, l1, l2 = make_dcache_controller(consecutive_decisions_required=2)
        sets = l1.num_sets

        def capacity_bound_interval():
            for _ in range(20):
                for way in range(4):
                    for set_index in range(64):
                        l1.access(0x1000 + set_index * 64 + way * sets * 64)

        capacity_bound_interval()
        first = controller.evaluate_interval()
        assert first.best == 0  # change deferred
        capacity_bound_interval()
        second = controller.evaluate_interval()
        assert second.best >= 2  # persistent need: change now allowed

    def test_costs_cover_every_configuration(self):
        controller, l1, _ = make_dcache_controller()
        l1.access(0x40)
        decision = controller.evaluate_interval()
        assert len(decision.values) == len(ADAPTIVE_DCACHE_CONFIGS)
        assert all(cost >= 0 for cost in decision.values)

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
        controller = PhaseAdaptiveQueueController(name="int")
        decisions = self._run_windows(controller, stride=2)
        assert all(ISSUE_QUEUE_SIZES[d.best] == 16 for d in decisions)

    def test_highly_parallel_code_grows_the_queue(self):
        controller = PhaseAdaptiveQueueController(name="int")
        decisions = self._run_windows(controller, stride=40, windows=6)
        assert ISSUE_QUEUE_SIZES[decisions[-1].best] > 16

    def test_consecutive_decision_damping(self):
        controller = PhaseAdaptiveQueueController(name="int", consecutive_decisions_required=3)
        decisions = self._run_windows(controller, stride=40, windows=2)
        # Not enough consecutive windows yet: stays at 16.
        assert all(ISSUE_QUEUE_SIZES[d.best] == 16 for d in decisions)

    def test_scores_scale_ilp_by_frequency(self):
        controller = PhaseAdaptiveQueueController(name="int")
        decisions = self._run_windows(controller, stride=2, windows=1)
        scores = decisions[0].values
        assert len(scores) == len(ISSUE_QUEUE_SIZES)  # one per size, 16 first
        assert scores[0] >= scores[-1]

    def test_validation(self):
        with pytest.raises(ValueError):
            PhaseAdaptiveQueueController(name="x", hysteresis=0.9)
        with pytest.raises(ValueError):
            PhaseAdaptiveQueueController(name="x", consecutive_decisions_required=0)


#: Each controller built with damping options, and the value that beats the
#: current configuration's 100 by a relative *gain* (costs fall, scores rise).
DAMPED = {
    "cache": (
        lambda **damping: make_dcache_controller(**damping)[0],
        lambda gain: 100.0 * (1.0 - gain),
    ),
    "queue": (
        lambda **damping: PhaseAdaptiveQueueController(name="int-queue", **damping),
        lambda gain: 100.0 * (1.0 + gain),
    ),
}


def decide(controller, better, winner, gain):
    """One interval whose raw winner, configuration *winner*, beats the
    current configuration by *gain*; the other two are far worse."""
    values = [better(-0.9)] * len(ISSUE_QUEUE_SIZES)
    values[controller.current_index] = 100.0
    values[winner] = better(gain)
    return controller._decide(tuple(values), winner)


@pytest.mark.parametrize("kind", sorted(DAMPED))
def test_damping_rule(kind):
    make, better = DAMPED[kind]
    controller = make(initial_index=1, hysteresis=0.1)
    # A raw winner short of its margin is held: a larger one needs
    # ``hysteresis``, a smaller one DOWNSIZE_MARGIN.
    up = decide(controller, better, 2, 0.05)
    down = decide(controller, better, 0, DOWNSIZE_MARGIN / 2)
    held = [(d.previous, d.best, d.raw_best, d.margin, d.suppressed_by) for d in (up, down)]
    assert held == [(1, 1, 2, 0.1, "hysteresis"), (1, 1, 0, DOWNSIZE_MARGIN, "hysteresis")]
    assert not up.changed and not down.changed
    down = decide(controller, better, 0, 0.05)
    assert (down.best, down.suppressed_by, down.changed) == (0, "", True)
    up = decide(controller, better, 2, 0.15)
    assert (up.previous, up.best, up.margin, up.changed) == (0, 2, 0.1, True)
    assert len(controller.decisions) == 4 and controller.current_index == 2

    # A change needs ``consecutive_decisions_required`` identical raw
    # winners in a row; a hold or another winner restarts the count.
    controller = make(hysteresis=0.1, consecutive_decisions_required=3)
    streak = [decide(controller, better, 2, 0.5) for _ in range(2)]
    streak.append(decide(controller, better, 2, 0.05))
    streak.append(decide(controller, better, 3, 0.5))
    streak += [decide(controller, better, 2, 0.5) for _ in range(3)]
    states = [(d.best, d.suppressed_by, d.pending_candidate, d.pending_count) for d in streak]
    assert states == [
        (0, "streak", 2, 1),
        (0, "streak", 2, 2),
        (0, "hysteresis", None, 0),
        (0, "streak", 3, 1),
        (0, "streak", 2, 1),
        (0, "streak", 2, 2),
        (2, "", None, 0),
    ]

    for damping, message in (
        (dict(hysteresis=0.5), "hysteresis"),
        (dict(hysteresis=-0.01), "hysteresis"),
        (dict(consecutive_decisions_required=0), "consecutive_decisions_required"),
    ):
        with pytest.raises(ValueError, match=message):
            make(**damping)


@pytest.mark.parametrize(
    ("kind", "suppressed_by"), [("cache", ""), ("queue", "hysteresis")], ids=["cache", "queue"]
)
def test_a_winner_exactly_at_its_margin(kind, suppressed_by):
    """A cache holds a cost above ``current * (1 - margin)``; a queue holds
    a score up to ``current * (1 + margin)``."""
    make, better = DAMPED[kind]
    assert decide(make(hysteresis=0.1), better, 2, 0.1).suppressed_by == suppressed_by


def test_ties_go_to_the_smaller_configuration():
    cache, _, _ = make_dcache_controller(initial_index=3)
    assert cache.evaluate_interval().raw_best == 0  # an empty interval costs nothing
    queue = PhaseAdaptiveQueueController(name="int-queue", initial_index=3)
    assert queue.evaluate(dict.fromkeys(ISSUE_QUEUE_SIZES, 0.0)).raw_best == 0


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
