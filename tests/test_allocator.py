import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import guard_floors_reference, reserved_shares
from qosguard.allocator import FieldError, SystemConfig, compute_partition, partitions
from qosguard.markov import blocking_probabilities, steady_state
from qosguard.simulate import SimScenario

CFG = SystemConfig(n_channels=100, guard=10, mu=1 / 120, window_n=100)

rate_vectors = st.lists(
    st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=6
).filter(lambda v: sum(v) > 1e-6)


class TestReservedShares:
    # the oracle's shares, which guard_floors_reference floors
    def test_fig11_point(self):
        assert reserved_shares((0.3, 0.4, 0.2, 0.1), 10) == pytest.approx((3, 4, 2, 1))

    def test_single_class_takes_all(self):
        assert reserved_shares((1.0,), 10) == pytest.approx((10,))

    def test_equal_ratio(self):
        assert reserved_shares((1, 1, 1, 1), 10) == pytest.approx((2.5,) * 4)

    def test_zero_rates_degenerate(self):
        with pytest.raises(ValueError):
            reserved_shares((0.0, 0.0), 10)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            reserved_shares((1.0, -0.1), 10)


class TestSweepPartitions:
    # partitions runs the floor rule on the columns of a whole grid; row by
    # row it must give the reference's floors, and an all-zero row those of
    # an all-ones row (the equal split), with limits y_m + N - Gamma
    @staticmethod
    def check(rows, gamma):
        config = SystemConfig(max(2 * gamma, 1), gamma, 1.0, 10)
        access, limits = partitions(config, np.array(rows, dtype=float))
        expected = [list(guard_floors_reference(row if any(row) else [1.0] * len(row), gamma))
                    for row in rows]
        assert access.dtype.kind == limits.dtype.kind == "i"
        assert access.tolist() == expected
        unreserved = config.n_channels - gamma
        assert limits.tolist() == [[y + unreserved for y in row] for row in expected]

    # rate-0 classes, all-zero rows, subnormals and rates far from 1
    @given(m_count=st.integers(min_value=1, max_value=6), data=st.data(),
           gamma=st.integers(min_value=0, max_value=200))
    def test_matches_reference(self, m_count, data, gamma):
        rate = st.just(0.0) | st.floats(min_value=0.0, max_value=100.0) | st.floats(
            min_value=0.0, max_value=1e150)
        row = st.lists(rate, min_size=m_count, max_size=m_count)
        rows = data.draw(st.lists(row | st.just([0.0] * m_count), min_size=1, max_size=20))
        self.check(rows, gamma)

    # rates k/10 with Gamma = sum(k): every exact suffix sum of shares is the
    # integer sum(k[i:]), the case where floats land a few ulps low; in one
    # grid with an all-zero row
    @given(ks=st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=6)
           .filter(lambda ks: sum(ks) > 0))
    @example(ks=[7, 3])
    @example(ks=[3, 1])          # fails without the snap
    @example(ks=[1, 2, 3])       # fails without the snap
    @example(ks=[3, 4, 2, 1])
    @example(ks=[5])
    def test_floor_boundaries(self, ks):
        rows = [[k / 10 for k in ks], [0.0] * len(ks), [k / 10 for k in reversed(ks)]]
        self.check(rows, sum(ks))
        exact = [sum(ks[i:]) for i in range(len(ks))]
        config = SystemConfig(max(2 * sum(ks), 1), sum(ks), 1.0, 10)
        assert partitions(config, np.array(rows[:1]))[0].tolist() == [exact]

    def test_explicit_floors(self):
        config = SystemConfig(20, 10, 1.0, 10)
        access, _ = partitions(config, np.array([[3, 4, 2, 1], [1.0, 1.0, 1.0, 1.0]]))
        assert access.tolist() == [[10, 7, 3, 1], [10, 7, 5, 2]]
        assert partitions(config, np.array([[1.0]]))[0].tolist() == [[10]]

    # one floor per class, whatever the number of classes
    @pytest.mark.parametrize("row", [[1.0, 2.0], [1.0, 2.0, 0.0, 4.0]])
    def test_one_floor_per_class(self, row):
        access, limits = partitions(SystemConfig(20, 10, 1.0, 10), np.array([row, row]))
        assert access.shape == limits.shape == (2, len(row))


class TestComputePartition:
    def test_fig11_limits(self):
        p = compute_partition(CFG, (0.3, 0.4, 0.2, 0.1))
        assert p.limits == (100, 97, 93, 91)
        assert p.guard_access == (10, 7, 3, 1)

    def test_no_guard_is_complete_sharing(self):
        cfg = SystemConfig(100, 0, 1 / 120, 100)
        p = compute_partition(cfg, (0.3, 0.4, 0.2, 0.1))
        assert p.limits == (100, 100, 100, 100)

    def test_small_worked_chain(self):
        cfg = SystemConfig(3, 1, 1.0, 100)
        p = compute_partition(cfg, (1.0, 1.0))
        assert p.guard_access == (1, 0)
        assert p.limits == (3, 2)

    def test_equal_split_fallback(self):
        # an all-zero vector has no proportional split: equal shares of 2.5
        assert compute_partition(CFG, (0,) * 4).guard_access == (10, 7, 5, 2)

    @pytest.mark.parametrize("rates", [(1.0, -0.1), (math.inf, 1.0), (math.nan, 1.0),
                                       (1e308, 1e308), ()])
    def test_bad_rate_rejected(self, rates):
        with pytest.raises(ValueError):
            compute_partition(CFG, rates)

    @pytest.mark.parametrize("rates", [(1.0, -0.1), (math.nan, 1.0), (1e308, 1e308), (),
                                       None, 5, "12", b"12", memoryview(b"12"), ["a"],
                                       (r for r in (1.0, 2.0))],
                             ids=["-0.1", "nan", "1e308+1e308", "()", "None", "5", "'12'",
                                  "b'12'", "memoryview(b'12')", "['a']", "generator"])
    def test_bad_rate_is_field_error(self, rates):
        # the package's one rate rule, the one SimScenario declares, checked
        # on the value as given: a string is not read as its characters
        with pytest.raises(FieldError, match=r"^rates: must be one or more entries, finite "
                                             r"and >= 0 with a finite sum, got "
                                             + re.escape(repr(rates)) + "$") as exc:
            compute_partition(CFG, rates)
        assert exc.value.name == "rates"

    @given(rates=rate_vectors, scale=st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariance(self, rates, scale):
        base = compute_partition(CFG, rates)
        scaled = compute_partition(CFG, [r * scale for r in rates])
        assert scaled.guard_access == base.guard_access
        assert scaled.limits == base.limits

    @given(rates=rate_vectors)
    def test_partition_invariants(self, rates):
        # a class-m call is admitted iff occupancy < N_m, so these limits
        # also state the admission rule's properties
        p = compute_partition(CFG, rates)
        assert p.guard_access[0] == CFG.guard
        assert all(a >= b for a, b in zip(p.guard_access, p.guard_access[1:]))
        assert len(p.limits) == len(rates)
        assert p.limits == tuple(CFG.n_channels - CFG.guard + y for y in p.guard_access)
        # class 1 is blocked only when all N channels are busy
        assert p.limits[0] == CFG.n_channels
        # a lower-priority class admitted means every higher one is too
        assert all(a >= b for a, b in zip(p.limits, p.limits[1:]))
        # an empty system admits every class
        assert p.limits[-1] >= CFG.n_channels - CFG.guard >= 1

    def test_class1_exclusive_guard_grows_with_class1_mass(self):
        # shifting rate mass toward class 1 never shrinks its exclusive band
        prev = -1
        for lam1 in [0.1, 0.3, 0.7, 1.5, 3.0, 10.0]:
            p = compute_partition(CFG, (lam1, 0.4, 0.2, 0.1))
            exclusive = CFG.guard - p.guard_access[1]
            assert exclusive >= prev
            prev = exclusive


class TestAdmit:
    # the simulator admits a class-m call iff occupancy < N_m
    PART = compute_partition(CFG, (0.3, 0.4, 0.2, 0.1))

    @staticmethod
    def admitted(occupied, m, partition):
        return occupied < partition.limits[m - 1]

    def test_empty_system_accepts_all(self):
        for m in (1, 2, 3, 4):
            assert self.admitted(0, m, self.PART)

    def test_class4_boundary(self):
        assert not self.admitted(91, 4, self.PART)
        assert self.admitted(90, 4, self.PART)

    @given(rates=rate_vectors, occupied=st.integers(min_value=0, max_value=100))
    def test_priority_dominance(self, rates, occupied):
        p = compute_partition(CFG, rates)
        m_count = len(rates)
        decisions = [self.admitted(occupied, m, p) for m in range(1, m_count + 1)]
        # if a lower-priority class gets in, every higher-priority class does too
        for lower in range(m_count):
            if decisions[lower]:
                assert all(decisions[:lower])

    @given(rates=rate_vectors)
    def test_class1_blocked_only_when_full(self, rates):
        p = compute_partition(CFG, rates)
        assert self.admitted(CFG.n_channels - 1, 1, p)
        assert not self.admitted(CFG.n_channels, 1, p)


class TestSystemConfig:
    def test_guard_exceeds_channels(self):
        with pytest.raises(ValueError):
            SystemConfig(10, 11, 1.0, 100)

    def test_soft_warning_on_large_guard(self):
        with pytest.warns(UserWarning):
            SystemConfig(10, 6, 1.0, 100)

    def test_bad_mu(self):
        with pytest.raises(ValueError):
            SystemConfig(10, 2, 0.0, 100)

    @pytest.mark.parametrize("name", ["n_channels", "guard", "window_n"])
    def test_float_for_integer_field_rejected(self, name):
        values = dict(n_channels=10, guard=2, mu=1.0, window_n=100)
        values[name] = float(values[name])
        with pytest.raises(ValueError, match=f"{name}: must be an integer"):
            SystemConfig(**values)

    # a value the check cannot compare is the field's error, not the check's
    # own TypeError, and a bool is not an integer
    @pytest.mark.parametrize("name, value", [("mu", "1"), ("n_channels", True)])
    def test_wrong_type_is_field_error(self, name, value):
        values = dict(n_channels=10, guard=2, mu=1.0, window_n=100)
        values[name] = value
        with pytest.raises(FieldError, match=f"^{name}: must be .*, got {value!r}$"):
            SystemConfig(**values)

    def test_numpy_integers_accepted(self):
        config = SystemConfig(np.int64(10), np.int32(2), 1.0, np.int64(100))
        assert compute_partition(config, (1.0, 1.0)).limits == (10, 9)


# a config that is not a SystemConfig, and each kind of bad rate grid:
# (function, arguments, the argument that is bad)
BAD_ARGUMENTS = [
    (SimScenario, ("x", (1.0,)), "config"),
    (compute_partition, ("x", (1.0,)), "config"),
    (partitions, ("x", np.array([[1.0]])), "config"),
    (steady_state, ("x", [[5]], [[1.0]]), "config"),
    (blocking_probabilities, ("x", [[5]], [[1.0]]), "config"),
    (partitions, (CFG, np.array([[1.0, -1.0]])), "rates"),
    (partitions, (CFG, np.array([[1.0, math.nan]])), "rates"),
    (partitions, (CFG, np.array([[1.0, math.inf]])), "rates"),
    (partitions, (CFG, np.array([[1e308, 1e308]])), "rates"),
    (partitions, (CFG, np.array([1.0, 1.0])), "rates"),
    (partitions, (CFG, "x"), "rates"),
]


@pytest.mark.parametrize("function,args,name", BAD_ARGUMENTS,
                         ids=lambda v: v.__name__ if callable(v) else repr(v))
def test_bad_argument_is_field_error(function, args, name):
    # a FieldError is a ValueError; no AttributeError, and no result built
    # from a row that fails the floor rule's conditions
    with pytest.raises(FieldError) as exc:
        function(*args)
    assert exc.value.name == name
