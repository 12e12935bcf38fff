import numpy as np
import pytest

from qosguard.allocator import SystemConfig, compute_partition
from qosguard.markov import blocking_probabilities, erlang_b, steady_state

from oracles import closed_form_blocking, dense_steady_state, erlang_b_direct, guard_birth_rate

SMALL_CFG = SystemConfig(3, 1, 1.0, 100)
SMALL_PART = compute_partition(SMALL_CFG, (1.0, 1.0))


def _cfg(n, gamma, mu=1.0):
    return SystemConfig(n, gamma, mu, 100)


def _ratio_rates(ratio, lam_t):
    return tuple(lam_t * r / sum(ratio) for r in ratio)


class TestSteadyState:
    def test_worked_small_chain(self):
        ss = steady_state(SMALL_CFG, SMALL_PART, (1.0, 1.0))
        np.testing.assert_allclose(
            ss.probs, [3 / 17, 6 / 17, 6 / 17, 2 / 17], atol=1e-12
        )

    def test_no_guard_matches_erlang_b(self):
        cfg = _cfg(2, 0)
        p = compute_partition(cfg, (1.0,))
        ss = steady_state(cfg, p, (1.0,))
        np.testing.assert_allclose(ss.probs, [0.4, 0.4, 0.2], atol=1e-12)

    def test_zero_rates_all_mass_at_zero(self):
        cfg = _cfg(5, 2)
        p = compute_partition(cfg, (0.0, 0.0))
        ss = steady_state(cfg, p, (0.0, 0.0))
        assert ss.probs[0] == 1.0
        assert ss.probs[1:].sum() == 0.0

    def test_normalization_large_n(self):
        cfg = SystemConfig(1000, 100, 1.0, 100)
        p = compute_partition(cfg, (400.0, 300.0, 200.0))
        ss = steady_state(cfg, p, (400.0, 300.0, 200.0))
        assert abs(ss.probs.sum() - 1.0) < 1e-12
        assert np.all(ss.probs >= 0)

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
        ss = steady_state(cfg, p, rates)
        oracle = dense_steady_state(n, cfg.mu, guard_birth_rate(p.limits, rates))
        np.testing.assert_allclose(ss.probs, oracle, atol=1e-10)

    @pytest.mark.parametrize("n", [100, 1000])
    @pytest.mark.parametrize("ratio", [(1, 1, 1, 1), (3, 4, 2, 1)])
    @pytest.mark.parametrize("load", [0.5, 1.0, 1.5])
    def test_matches_dense_solve_at_scale(self, n, ratio, load):
        # load is the offered traffic as a share of N, Gamma is N/10
        cfg = _cfg(n, n // 10, 1 / 120)
        rates = _ratio_rates(ratio, load * n * cfg.mu)
        p = compute_partition(cfg, rates)
        ss = steady_state(cfg, p, rates)
        oracle = dense_steady_state(n, cfg.mu, guard_birth_rate(p.limits, rates))
        assert np.max(np.abs(ss.probs - oracle)) <= 1e-12

    @pytest.mark.parametrize("offered", [19000.0, 21000.0])
    def test_no_guard_matches_erlang_b_at_20000_channels(self, offered):
        cfg = _cfg(20000, 0)
        rates = _ratio_rates((3, 4, 2, 1), offered)
        p = compute_partition(cfg, rates)
        ss = steady_state(cfg, p, rates)
        assert float(ss.probs[-1]) == pytest.approx(erlang_b(20000, offered), rel=1e-9)

    @pytest.mark.parametrize("offered", [1e-6, 1e300])
    def test_extreme_loads_stay_normalised(self, offered):
        cfg = _cfg(100, 10)
        rates = _ratio_rates((3, 4, 2, 1), offered)
        p = compute_partition(cfg, rates)
        ss = steady_state(cfg, p, rates)
        assert np.all(np.isfinite(ss.probs))
        assert ss.probs.sum() == pytest.approx(1.0, abs=1e-12)


class TestBlockingProbabilities:
    def test_worked_chain_blocking(self):
        ss = steady_state(SMALL_CFG, SMALL_PART, (1.0, 1.0))
        rep = blocking_probabilities(ss, SMALL_PART)
        assert rep.per_class[0] == pytest.approx(2 / 17, abs=1e-12)
        assert rep.per_class[1] == pytest.approx(8 / 17, abs=1e-12)

    def test_worked_chain_utilization(self):
        ss = steady_state(SMALL_CFG, SMALL_PART, (1.0, 1.0))
        rep = blocking_probabilities(ss, SMALL_PART)
        assert rep.utilization == pytest.approx(24 / 51, abs=1e-12)

    def test_no_guard_collapses_to_erlang_b(self):
        cfg = _cfg(20, 0)
        rates = (2.0, 3.0, 1.0)
        p = compute_partition(cfg, rates)
        rep = blocking_probabilities(steady_state(cfg, p, rates), p)
        expected = erlang_b(20, 6.0)
        for b in rep.per_class:
            assert b == pytest.approx(expected, abs=1e-9)

    def test_monotone_blocking(self):
        cfg = _cfg(100, 10, 1 / 120)
        for lam_t in (0.3, 0.7, 1.0, 1.5):
            rates = tuple(lam_t * f for f in (0.3, 0.4, 0.2, 0.1))
            p = compute_partition(cfg, rates)
            rep = blocking_probabilities(steady_state(cfg, p, rates), p)
            assert all(a <= b + 1e-15 for a, b in zip(rep.per_class, rep.per_class[1:]))
            assert rep.per_class[0] == pytest.approx(
                float(steady_state(cfg, p, rates).probs[-1])
            )

    def test_load_monotonicity(self):
        cfg = _cfg(50, 6, 1.0)
        rates = (10.0, 8.0, 6.0)
        p = compute_partition(cfg, rates)
        prev = blocking_probabilities(steady_state(cfg, p, rates), p).per_class
        for c in (1.5, 2.0, 3.0):
            scaled = tuple(r * c for r in rates)
            # partition unchanged by scale invariance
            rep = blocking_probabilities(steady_state(cfg, p, scaled), p).per_class
            assert all(b >= a - 1e-12 for a, b in zip(prev, rep))
            prev = rep

    def test_mismatched_limits_rejected(self):
        ss = steady_state(SMALL_CFG, SMALL_PART, (1.0, 1.0))
        other = compute_partition(_cfg(4, 1), (1.0, 1.0))
        assert other.limits != SMALL_PART.limits
        with pytest.raises(ValueError):
            blocking_probabilities(ss, other)

    def test_occupancy_sandwich(self):
        # mean occupancy sits between complete sharing with N-Gamma and N servers
        cfg = _cfg(100, 10, 1 / 120)
        for load in (60, 80, 100, 120):
            lam_t = load * cfg.mu
            rates = tuple(lam_t / 4 for _ in range(4))
            p = compute_partition(cfg, rates)
            rep = blocking_probabilities(steady_state(cfg, p, rates), p)
            occ = rep.utilization * 100
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
        ref = blocking_probabilities(steady_state(cfg, p, rates), p)
        for a, b in zip(rep.per_class, ref.per_class):
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
