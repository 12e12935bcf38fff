import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import ArrivalWindowReference
from qosguard.allocator import FieldError
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

    def test_non_increasing_chunk_rejected(self):
        w = ArrivalWindow(1, capacity=3)
        w.record_arrivals([1.0, 2.0])
        for times in ([3.0, 4.0, 4.0], [2.0, 5.0]):
            with pytest.raises(ValueError, match="strictly increasing"):
                w.record_arrivals(times)
        # a rejected chunk records nothing
        assert list(w.gaps) == [1.0]
        assert w.last_arrival == 2.0

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

    @pytest.mark.parametrize("capacity", [True, 2.5, 0])
    def test_non_integer_capacity_rejected(self, capacity):
        # True and 2.5 made a window; a bool is not an integer anywhere else
        with pytest.raises(FieldError, match=r"^capacity: must be an integer >= 1, got "):
            ArrivalWindow(1, capacity)

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



class TestChunkedRecording:
    # record_arrivals runs the running sum's adds, subtracts and re-sums over
    # a whole chunk; it must give, bit for bit, the estimates of the scalar
    # loop after every arrival, however the arrivals are split into chunks
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        records=st.integers(min_value=4097, max_value=9000),
        capacity=st.integers(min_value=1, max_value=150),
        scale=st.sampled_from([1e-3, 1.0, 120.0]),
        offset=st.sampled_from([0.0, 7.5]),
        growth=st.sampled_from([1.0, 1.02]),
        splits=st.lists(st.integers(min_value=0, max_value=700), min_size=1,
                        max_size=30).filter(any),
    )
    # one chunk that crosses three re-sums, each after rounding drift
    @example(seed=1, records=12_500, capacity=60, scale=1.0, offset=0.0, growth=1.02,
             splits=[12_500])
    def test_matches_scalar_window(self, seed, records, capacity, scale, offset, growth,
                                   splits):
        rng = np.random.default_rng(seed)
        # once the times are large against a window's span, the gaps between
        # them add up exactly and a re-sum changes nothing; gaps that grow 2%
        # an arrival keep the sums rounding, so every re-sum counts
        gaps = rng.exponential(scale, records) * growth ** np.arange(records)
        times = offset + np.cumsum(gaps)
        reference = ArrivalWindowReference(1, capacity)
        expected = []
        for t in times.tolist():
            reference.record_arrival(t)
            expected.append(reference.estimate_rate() if reference.has_estimate else None)

        window = ArrivalWindow(1, capacity)
        got = []
        start = i = 0
        while start < records:
            stop = start + splits[i % len(splits)]
            got += window.record_arrivals(times[start:stop]).tolist()
            start, i = stop, i + 1
        # the first arrival defines no gap
        assert math.isnan(got[0]) and expected[0] is None
        assert got[1:] == expected[1:]
        assert window.estimate_rate() == reference.estimate_rate()
        assert list(window.gaps) == list(reference.gaps)
