"""Tests for the host-speed probe in repro.bench.timer."""

from __future__ import annotations

import pytest

from repro.bench.timer import _calibration_kernel, calibrate


class TestTimer:
    def test_calibration_is_positive_and_repeatable_order_of_magnitude(self):
        first = calibrate(repeats=2)
        second = calibrate(repeats=2)
        assert first > 0 and second > 0
        # Same host, same kernel: within a generous factor of each other.
        assert 0.2 < first / second < 5.0

    def test_calibration_kernel_is_fixed(self):
        # perfbench scales sim_kips by this kernel's time, so any edit to it
        # silently rescales every recorded speed.
        assert _calibration_kernel() == 796_956

    def test_calibrate_rejects_non_positive_repeats(self):
        for repeats in (0, -1):
            with pytest.raises(ValueError, match="repeats must be positive"):
                calibrate(repeats=repeats)
