import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qosguard import markov
from qosguard.allocator import FieldError, SystemConfig, compute_partition
from qosguard.markov import _BLOCK_ROWS, blocking_probabilities, erlang_b, steady_state

from oracles import (
    blocking_full_width,
    blocking_point,
    closed_form_blocking,
    dense_steady_state,
    erlang_b_direct,
    erlang_b_point,
    guard_birth_rate,
    steady_state_full_width,
)

SMALL_CFG = SystemConfig(3, 1, 1.0, 100)
SMALL_PART = compute_partition(SMALL_CFG, (1.0, 1.0))


def _cfg(n, gamma, mu=1.0):
    return SystemConfig(n, gamma, mu, 100)


def _ratio_rates(ratio, lam_t):
    return tuple(lam_t * r / sum(ratio) for r in ratio)


class TestSteadyState:
    def test_worked_small_chain(self):
        probs = steady_state(SMALL_CFG, [SMALL_PART.limits], [(1.0, 1.0)])[0]
        np.testing.assert_allclose(
            probs, [3 / 17, 6 / 17, 6 / 17, 2 / 17], atol=1e-12
        )

    def test_no_guard_matches_erlang_b(self):
        cfg = _cfg(2, 0)
        p = compute_partition(cfg, (1.0,))
        probs = steady_state(cfg, [p.limits], [(1.0,)])[0]
        np.testing.assert_allclose(probs, [0.4, 0.4, 0.2], atol=1e-12)

    def test_zero_rates_all_mass_at_zero(self):
        cfg = _cfg(5, 2)
        p = compute_partition(cfg, (0.0, 0.0))
        probs = steady_state(cfg, [p.limits], [(0.0, 0.0)])[0]
        assert probs[0] == 1.0
        assert probs[1:].sum() == 0.0

    def test_normalization_large_n(self):
        cfg = SystemConfig(1000, 100, 1.0, 100)
        p = compute_partition(cfg, (400.0, 300.0, 200.0))
        probs = steady_state(cfg, [p.limits], [(400.0, 300.0, 200.0)])[0]
        assert abs(probs.sum() - 1.0) < 1e-12
        assert np.all(probs >= 0)

    @pytest.mark.parametrize(
        "n,gamma,rates",
        [
            (5, 2, (1.0, 0.5)),
            (10, 4, (2.0, 1.0, 0.5)),
            (20, 4, (2.0, 1.0, 1.0, 1.0)),
            (15, 7, (0.3, 0.4, 0.2, 0.1)),
        ],
    )
    def test_matches_dense_solve(self, n, gamma, rates):
        cfg = _cfg(n, gamma)
        p = compute_partition(cfg, rates)
        probs = steady_state(cfg, [p.limits], [rates])[0]
        oracle = dense_steady_state(n, cfg.mu, guard_birth_rate(p.limits, rates))
        np.testing.assert_allclose(probs, oracle, atol=1e-10)

    @pytest.mark.parametrize("n", [100, 1000])
    @pytest.mark.parametrize("ratio", [(1, 1, 1, 1), (3, 4, 2, 1)])
    @pytest.mark.parametrize("load", [0.5, 1.0, 1.5])
    def test_matches_dense_solve_at_scale(self, n, ratio, load):
        # load is the offered traffic as a share of N, Gamma is N/10
        cfg = _cfg(n, n // 10, 1 / 120)
        rates = _ratio_rates(ratio, load * n * cfg.mu)
        p = compute_partition(cfg, rates)
        probs = steady_state(cfg, [p.limits], [rates])[0]
        oracle = dense_steady_state(n, cfg.mu, guard_birth_rate(p.limits, rates))
        assert np.max(np.abs(probs - oracle)) <= 1e-12

    @pytest.mark.parametrize("offered", [19000.0, 21000.0])
    def test_no_guard_matches_erlang_b_at_20000_channels(self, offered):
        cfg = _cfg(20000, 0)
        rates = _ratio_rates((3, 4, 2, 1), offered)
        p = compute_partition(cfg, rates)
        probs = steady_state(cfg, [p.limits], [rates])[0]
        assert float(probs[-1]) == pytest.approx(erlang_b(20000, offered), rel=1e-9)

    @pytest.mark.parametrize("offered", [1e-6, 1e300])
    def test_extreme_loads_stay_normalised(self, offered):
        cfg = _cfg(100, 10)
        rates = _ratio_rates((3, 4, 2, 1), offered)
        p = compute_partition(cfg, rates)
        probs = steady_state(cfg, [p.limits], [rates])[0]
        assert np.all(np.isfinite(probs))
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)


class TestBlockingProbabilities:
    def test_worked_chain_blocking(self):
        rep = blocking_probabilities(SMALL_CFG, [SMALL_PART.limits], [(1.0, 1.0)])
        assert rep.per_class[0][0] == pytest.approx(2 / 17, abs=1e-12)
        assert rep.per_class[0][1] == pytest.approx(8 / 17, abs=1e-12)

    def test_worked_chain_utilization(self):
        rep = blocking_probabilities(SMALL_CFG, [SMALL_PART.limits], [(1.0, 1.0)])
        assert rep.utilization[0] == pytest.approx(24 / 51, abs=1e-12)

    def test_no_guard_collapses_to_erlang_b(self):
        cfg = _cfg(20, 0)
        rates = (2.0, 3.0, 1.0)
        p = compute_partition(cfg, rates)
        rep = blocking_probabilities(cfg, [p.limits], [rates])
        expected = erlang_b(20, 6.0)
        for b in rep.per_class[0]:
            assert b == pytest.approx(expected, abs=1e-9)

    def test_monotone_blocking(self):
        cfg = _cfg(100, 10, 1 / 120)
        for lam_t in (0.3, 0.7, 1.0, 1.5):
            rates = tuple(lam_t * f for f in (0.3, 0.4, 0.2, 0.1))
            p = compute_partition(cfg, rates)
            per_class = blocking_probabilities(cfg, [p.limits], [rates]).per_class[0]
            assert all(a <= b + 1e-15 for a, b in zip(per_class, per_class[1:]))
            assert per_class[0] == pytest.approx(
                float(steady_state(cfg, [p.limits], [rates])[0][-1])
            )

    def test_load_monotonicity(self):
        cfg = _cfg(50, 6, 1.0)
        rates = (10.0, 8.0, 6.0)
        p = compute_partition(cfg, rates)
        prev = blocking_probabilities(cfg, [p.limits], [rates]).per_class[0]
        for c in (1.5, 2.0, 3.0):
            scaled = tuple(r * c for r in rates)
            # partition unchanged by scale invariance
            rep = blocking_probabilities(cfg, [p.limits], [scaled]).per_class[0]
            assert all(b >= a - 1e-12 for a, b in zip(prev, rep))
            prev = rep

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError, match="one shape"):
            blocking_probabilities(SMALL_CFG, [SMALL_PART.limits], [(1.0, 1.0, 1.0)])
        with pytest.raises(ValueError, match="one shape"):
            steady_state(SMALL_CFG, SMALL_PART.limits, (1.0, 1.0))

    @pytest.mark.parametrize("limits", [[[6, 3], [4, 4]], [[4, 4], [4, 5]], [[-1, 4], [4, 4]]])
    def test_limit_outside_0_to_n_rejected(self, limits):
        # unchecked, a limit of 6 at N=4 would land in the next row's bins
        cfg = SystemConfig(4, 1, 1.0, 10)
        for solve in (steady_state, blocking_probabilities):
            with pytest.raises(ValueError, match=r"limits must lie in 0\.\.4"):
                solve(cfg, limits, np.ones((2, 2)))

    @pytest.mark.parametrize("bad", [-0.5, np.nan, np.inf])
    def test_negative_or_non_finite_rate_rejected(self, bad):
        cfg = SystemConfig(4, 1, 1.0, 10)
        for solve in (steady_state, blocking_probabilities):
            with pytest.raises(FieldError, match=r"^rates: must be a 2-D grid, finite and >= 0"):
                solve(cfg, [[4, 3], [4, 4]], [[1.0, 1.0], [1.0, bad]])

    def test_rates_whose_sum_overflows_rejected(self):
        # unchecked, the total rate 2e308 is inf, and every result nan
        cfg = SystemConfig(10, 2, 1.0, 10)
        for solve in (steady_state, blocking_probabilities):
            with pytest.raises(FieldError, match=r"^rates: .* with finite row sums"):
                solve(cfg, [[10, 10]], [[1e308, 1e308]])
        with pytest.raises(FieldError, match=r"^rates: .* with a finite sum"):
            compute_partition(cfg, (1e308, 1e308))

    @pytest.mark.parametrize("limits", [[[3.7, 4]], [[4.0, 3.0]], [[np.nan, 4]]],
                             ids=["3.7", "4.0", "nan"])
    def test_non_integer_limits_rejected(self, limits):
        # cast to int, [[3.7, 4]] would silently solve the chain of limit 3
        cfg = SystemConfig(4, 1, 1.0, 10)
        for solve in (steady_state, blocking_probabilities):
            with pytest.raises(ValueError, match="limits must be integers"):
                solve(cfg, limits, [[1.0, 1.0]])

    @pytest.mark.parametrize("limits", [[[True, 4]], [[np.True_, 4]], [(4, False)]],
                             ids=["True", "np.True_", "False"])
    def test_bool_limit_rejected(self, limits):
        # np.asarray([[True, 4]]) is the int array [[1, 4]]: the chain of limit 1
        cfg = SystemConfig(4, 1, 1.0, 10)
        for solve in (steady_state, blocking_probabilities):
            with pytest.raises(ValueError, match="limits must be integers"):
                solve(cfg, limits, [[1.0, 1.0]])

    @pytest.mark.parametrize("rates", [[1.0, 2.0], 3.0, [[[1.0]]]], ids=["1-D", "0-D", "3-D"])
    def test_total_rate_needs_a_grid(self, rates):
        # a 1-D vector read as a grid gave [3., 3.], one total per entry
        with pytest.raises(ValueError, match="P x M grid"):
            markov.total_rate(rates)

    def test_grid_rows_match_single_points(self):
        # a lambda_1 sweep whose limits change inside a block, over several
        # blocks and a partial one: each row is solved as if on its own
        cfg = _cfg(100, 10, 1 / 120)
        rates = [(l1, 0.4, 0.0, 0.1) for l1 in np.linspace(0.0, 1.5, 2 * _BLOCK_ROWS + 5)]
        limits = [compute_partition(cfg, r).limits for r in rates]
        assert len(set(limits[:_BLOCK_ROWS])) > 1
        grid = blocking_probabilities(cfg, limits, rates)
        for p, (lim, r) in enumerate(zip(limits, rates)):
            one = blocking_probabilities(cfg, [lim], [r])
            assert np.array_equal(grid.per_class[p], one.per_class[0])
            assert grid.utilization[p] == one.utilization[0]
            assert grid.offered_load[p] == one.offered_load[0]

    def test_occupancy_sandwich(self):
        # mean occupancy sits between complete sharing with N-Gamma and N servers
        cfg = _cfg(100, 10, 1 / 120)
        for load in (60, 80, 100, 120):
            lam_t = load * cfg.mu
            rates = tuple(lam_t / 4 for _ in range(4))
            p = compute_partition(cfg, rates)
            rep = blocking_probabilities(cfg, [p.limits], [rates])
            occ = rep.utilization[0] * 100
            low = load * (1 - erlang_b(90, load))
            high = load * (1 - erlang_b(100, load))
            assert low - 1e-9 <= occ <= high + 1e-9


class TestClosedForm:
    @pytest.mark.parametrize(
        "n,gamma,rates,mu",
        [
            (3, 1, (1.0, 1.0), 1.0),
            (20, 0, (2.0, 1.0), 1.0),
            (20, 4, (2.0, 1.0, 1.0, 1.0), 1.0),
            (100, 10, (0.25, 0.25, 0.25, 0.25), 1 / 120),
            (100, 10, (0.3, 0.4, 0.2, 0.1), 1 / 120),
        ],
    )
    def test_agrees_with_recurrence(self, n, gamma, rates, mu):
        cfg = _cfg(n, gamma, mu)
        p = compute_partition(cfg, rates)
        rep = closed_form_blocking(cfg, p, rates)  # raises on discrepancy > 1e-9
        ref = blocking_probabilities(cfg, [p.limits], [rates])
        for a, b in zip(rep.per_class, ref.per_class[0]):
            assert a == pytest.approx(b, abs=1e-9)

    def test_worked_chain_values(self):
        rep = closed_form_blocking(SMALL_CFG, SMALL_PART, (1.0, 1.0))
        assert rep.per_class[0] == pytest.approx(2 / 17, abs=1e-9)
        assert rep.per_class[1] == pytest.approx(8 / 17, abs=1e-9)


class TestErlangB:
    def test_two_servers_unit_load(self):
        assert erlang_b(2, 1.0) == pytest.approx(0.2, abs=1e-15)

    def test_no_servers(self):
        assert erlang_b(0, 5.0) == 1.0

    def test_no_load(self):
        assert erlang_b(10, 0.0) == 0.0

    @pytest.mark.parametrize("servers,offered", [(5, 3.0), (50, 40.0), (100, 80.0)])
    def test_matches_direct_formula(self, servers, offered):
        assert erlang_b(servers, offered) == pytest.approx(
            erlang_b_direct(servers, offered), rel=1e-12
        )

    def test_array_of_loads(self):
        loads = np.array([0.0, 0.5, 3.0, 40.0, 80.0, 1e6])
        b = erlang_b(50, loads)
        assert isinstance(b, np.ndarray) and b.shape == loads.shape
        assert b.tolist() == [erlang_b_point(50, a) for a in loads.tolist()]

    def test_scalar_load_returns_float(self):
        assert type(erlang_b(50, 40.0)) is float

    @pytest.mark.parametrize("servers", [True, 2.5, -1])
    def test_non_integer_servers_rejected(self, servers):
        # True gave the blocking of 1 server and 2.5 a bare TypeError
        with pytest.raises(FieldError, match=r"^servers: must be an integer >= 0, got "):
            erlang_b(servers, 1.0)

    def test_negative_load_rejected(self):
        with pytest.raises(ValueError):
            erlang_b(5, np.array([1.0, -0.5]))
        with pytest.raises(ValueError):
            erlang_b(-1, 1.0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, -np.inf])
    def test_non_finite_load_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            erlang_b(10, bad)
        with pytest.raises(ValueError, match="finite"):
            erlang_b(10, np.array([1.0, bad]))


# Values below the smallest normal float carry no relative precision.
TINY = np.finfo(float).tiny


@st.composite
def sweeps(draw):
    """A load sweep as the analyzer gets it: a ratio (staircase) grid of
    lambda_total values or a lambda_1 grid over fixed classes, at N=100 or
    N=1000, with zero rates among the classes and points."""
    n = draw(st.sampled_from([100, 1000]))
    cfg = SystemConfig(n, draw(st.integers(0, n // 2)), draw(st.sampled_from([1.0, 1 / 120])), 100)
    m_count = draw(st.integers(1, 5))
    base = draw(st.lists(st.sampled_from([0.0, 0.1, 0.3, 0.4, 1.0, 2.5]), min_size=m_count,
                         max_size=m_count))
    top = 1.5 * n * cfg.mu
    values = sorted(set(draw(st.lists(st.floats(0.0, top), min_size=1, max_size=40))))
    if draw(st.booleans()):
        ratio = base if sum(base) > 0 else [1.0] * m_count
        rates = [tuple(r / sum(ratio) * lt for r in ratio) for lt in values]
    else:
        rates = [(l1, *base[1:]) for l1 in values]
    limits = [compute_partition(cfg, r).limits for r in rates]
    return cfg, limits, rates


def _benchmark_sweep():
    """The benchmark's analytic sweep: 1000 points at N=1000, Gamma=100,
    ratio 3:4:2:1, from 0.6 N to 1.2 N Erlangs."""
    cfg = _cfg(1000, 100, 1 / 120)
    low, high = 1000 * 0.6 * cfg.mu, 1000 * 1.2 * cfg.mu
    loads = [low + k * (high - low) / 999 for k in range(1000)]
    rates = np.outer(loads, np.array([3.0, 4.0, 2.0, 1.0]) / 10)
    limits = np.array([compute_partition(cfg, r).limits for r in rates.tolist()])
    return cfg, limits, rates


class TestMatchesPointSolver:
    """The grid solver against the one-point-at-a-time solver it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(sweeps())
    def test_blocking_matches_point_solver(self, sweep):
        cfg, limits, rates = sweep
        grid = blocking_probabilities(cfg, limits, rates)
        assert grid.per_class.shape == (len(rates), len(rates[0]))
        for p, (lim, r) in enumerate(zip(limits, rates)):
            point = blocking_point(cfg, lim, r)
            np.testing.assert_allclose(grid.per_class[p], point.per_class, rtol=1e-12, atol=TINY)
            np.testing.assert_allclose(grid.utilization[p], point.utilization, rtol=1e-12, atol=TINY)
            assert grid.offered_load[p] == point.offered_load

    @settings(max_examples=60, deadline=None)
    @given(sweeps())
    def test_erlang_b_bit_equal_to_point_recurrence(self, sweep):
        cfg, _, rates = sweep
        offered = np.array([sum(r) for r in rates]) / cfg.mu
        expected = [erlang_b_point(cfg.n_channels, a) for a in offered.tolist()]
        assert erlang_b(cfg.n_channels, offered).tolist() == expected

    def test_benchmark_sweep_bit_equal_to_point_solver(self):
        # every row takes the one-point arithmetic, so the two agree to the
        # bit. A matrix-vector product for the utilization or tails from a
        # cumulative sum move last bits on this grid, and so does numpy's log
        # of a 2-D or contiguous operand on a CPU where its vector log rounds
        # differently from the strided one (seen with numpy 2.4 on AVX-512)
        cfg, limits, rates = _benchmark_sweep()
        grid = blocking_probabilities(cfg, limits, rates)
        for p, (lim, r) in enumerate(zip(limits.tolist(), rates.tolist())):
            point = blocking_point(cfg, lim, r)
            assert tuple(grid.per_class[p].tolist()) == point.per_class
            assert grid.utilization[p] == point.utilization

    def test_sweep_memory_is_bounded(self):
        # unblocked, a single P x (N+1) temporary of this sweep is ~7.6 MiB
        cfg, limits, rates = _benchmark_sweep()
        tracemalloc.start()
        try:
            blocking_probabilities(cfg, limits, rates)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def _band_cfg(n, gamma, mu=1.0):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # guard > N/2 warns
        return SystemConfig(n, gamma, mu, 100)


@st.composite
def guard_band_grids(draw):
    """Any limits inside the guard band N-Gamma..N, so the rows of a block
    differ in their lowest limit: N from 1, Gamma up to N (a limit of 0),
    M from 1, and all-zero rows among the points."""
    n = draw(st.sampled_from([1, 2, 3, 7, 40, 1000]))
    gamma = draw(st.integers(0, n))
    m_count = draw(st.integers(1, 5))
    cfg = _band_cfg(n, gamma, draw(st.sampled_from([1.0, 1 / 120, 3.7])))
    rate = st.sampled_from([0.0, 0.1, 1.0, 2.5]) | st.floats(1e-3, 1e4)
    row = st.tuples(
        st.lists(st.integers(n - gamma, n), min_size=m_count, max_size=m_count),
        st.lists(rate, min_size=m_count, max_size=m_count) | st.just([0.0] * m_count),
    )
    limits, rates = zip(*draw(st.lists(row, min_size=1, max_size=40)))
    return cfg, limits, rates


class TestMatchesFullWidthSolver:
    """The guard-band solver against the full-width solver it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(guard_band_grids(), st.sampled_from([1, 3, _BLOCK_ROWS]))
    @example((_band_cfg(1, 0), [[1]], [[2.0]]), 1)
    @example((_band_cfg(1, 1), [[0, 1], [1, 1], [0, 0]], [[5.0, 1.0], [0.0, 0.0], [1.0, 2.0]]), 3)
    @example((_band_cfg(6, 6), [[6, 0, 3], [5, 6, 6], [6, 6, 6]], [[1.0, 4.0, 0.5]] * 3), _BLOCK_ROWS)
    @example((_band_cfg(50, 0), [[50, 50]] * 5, [[30.0, 12.5]] * 5), 3)
    def test_bit_equal_to_full_width_solver(self, grid, block_rows):
        cfg, limits, rates = grid
        assert np.array_equal(
            steady_state(cfg, limits, rates), steady_state_full_width(cfg, limits, rates)
        )
        with mock.patch.object(markov, "_BLOCK_ROWS", block_rows):
            report = blocking_probabilities(cfg, limits, rates)
        per_class, utilization = blocking_full_width(cfg, limits, rates)
        assert np.array_equal(report.per_class, per_class)
        assert np.array_equal(report.utilization, utilization)
