import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qosguard.traffic import ArrivalWindow


class TestArrivalWindow:
    def test_first_arrival_defines_no_gap(self):
        w = ArrivalWindow(1, capacity=5)
        w.record_arrival(5.0)
        assert list(w.gaps) == []
        assert w.last_arrival == 5.0

    def test_gap_is_difference(self):
        w = ArrivalWindow(1, capacity=5)
        for t in [3.0, 5.0, 8.0]:
            w.record_arrival(t)
        assert list(w.gaps) == [2.0, 3.0]
        assert w.last_arrival == 8.0

    def test_fifo_eviction_at_capacity(self):
        w = ArrivalWindow(1, capacity=3)
        for t in [7.0, 8.0, 9.0, 10.0]:
            w.record_arrival(t)
        assert list(w.gaps) == [1.0, 1.0, 1.0]
        w.record_arrival(12.0)
        assert list(w.gaps) == [1.0, 1.0, 2.0]
        assert w.last_arrival == 12.0

    def test_non_increasing_timestamp_rejected(self):
        w = ArrivalWindow(1, capacity=3)
        w.record_arrival(5.0)
        with pytest.raises(ValueError):
            w.record_arrival(5.0)
        with pytest.raises(ValueError):
            w.record_arrival(4.0)

    def test_estimate_equal_gaps(self):
        w = ArrivalWindow(1, capacity=10)
        for t in [0.0, 2.0, 4.0, 6.0, 8.0]:
            w.record_arrival(t)
        assert w.estimate_rate() == pytest.approx(0.5, abs=1e-15)

    def test_estimate_two_gaps(self):
        w = ArrivalWindow(1, capacity=10)
        for t in [0.0, 1.0, 4.0]:
            w.record_arrival(t)
        assert w.estimate_rate() == pytest.approx(0.5)

    def test_empty_window_unavailable(self):
        w = ArrivalWindow(1, capacity=10)
        with pytest.raises(ValueError, match="no inter-arrival gap"):
            w.estimate_rate()
        w.record_arrival(1.0)  # still no gap
        with pytest.raises(ValueError, match="no inter-arrival gap"):
            w.estimate_rate()

    def test_estimator_mean_close_to_true_rate(self):
        # Monte Carlo over independent windows of exponential gaps
        rng = np.random.default_rng(42)
        lam, n, windows = 0.4, 100, 10_000
        gaps = rng.exponential(1 / lam, size=(windows, n))
        estimates = n / gaps.sum(axis=1)
        assert abs(estimates.mean() - lam) / lam < 0.02

    @given(
        gaps=st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=50),
        scale=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_scale_equivariance(self, gaps, scale):
        def build(values):
            w = ArrivalWindow(1, capacity=len(values))
            t = 0.0
            w.record_arrival(t)
            for g in values:
                t += g
                w.record_arrival(t)
            return w.estimate_rate()

        base = build(gaps)
        scaled = build([g * scale for g in gaps])
        assert scaled == pytest.approx(base / scale, rel=1e-9)

    @given(
        times=st.lists(
            st.floats(min_value=1e-3, max_value=10.0), min_size=1, max_size=40
        ),
        capacity=st.integers(min_value=1, max_value=8),
    )
    def test_retains_most_recent_gaps(self, times, capacity):
        w = ArrivalWindow(1, capacity=capacity)
        t = 0.0
        all_gaps = []
        w.record_arrival(t)
        for g in times:
            t += g
            w.record_arrival(t)
            all_gaps.append(g)
        assert len(w.gaps) <= capacity
        expected = all_gaps[-capacity:]
        assert list(w.gaps) == pytest.approx(expected)

