import heapq
import math
import tracemalloc
import warnings
from dataclasses import asdict, replace
from itertools import count, islice

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles import (admit_reference, block_events_reference, merge_reference, run_logged,
                     run_simulation_reference)
from qosguard import simulate
from qosguard.allocator import FieldError, SystemConfig, compute_partition
from qosguard.markov import blocking_probabilities, erlang_b
from qosguard.simulate import Admission, SimScenario, run_simulation, search_slots
from qosguard.traffic import ArrivalWindow

SMALL_CFG = SystemConfig(3, 1, 1.0, 50)
SMALL_RATES = (1.0, 1.0)


def small_scenario(**kwargs):
    defaults = dict(
        config=SMALL_CFG,
        rates=SMALL_RATES,
        arrivals=200_000,
        seed=11,
        bypass_estimator=True,
    )
    defaults.update(kwargs)
    return SimScenario(**defaults)


def binom_se(p, n):
    return math.sqrt(p * (1 - p) / n)


class TestRunSimulation:
    def test_small_chain_matches_analysis(self):
        metrics = run_simulation(small_scenario())
        part = compute_partition(SMALL_CFG, SMALL_RATES)
        per_class = blocking_probabilities(SMALL_CFG, [part.limits], [SMALL_RATES]).per_class[0]
        for m in range(2):
            n = metrics.per_class_arrivals[m]
            se = binom_se(per_class[m], n)
            assert abs(metrics.empirical_blocking[m] - per_class[m]) < 3 * se

    def test_complete_sharing_matches_erlang_b(self):
        cfg = SystemConfig(10, 0, 1.0, 50)
        rates = (4.0, 4.0)
        metrics = run_simulation(
            small_scenario(config=cfg, rates=rates, policy="sharing", arrivals=300_000)
        )
        expected = erlang_b(10, 8.0)
        for m in range(2):
            se = binom_se(expected, metrics.per_class_arrivals[m])
            assert abs(metrics.empirical_blocking[m] - expected) < 3 * se

    def test_zero_rates_zero_everything(self):
        rates = (0.0, 0.0)
        metrics = run_simulation(small_scenario(rates=rates, arrivals=10))
        assert metrics.per_class_arrivals == (0, 0)
        assert metrics.utilization == 0.0

    def test_determinism(self):
        sc = small_scenario(arrivals=50_000, bypass_estimator=False)
        a = run_logged(sc)
        b = run_logged(sc)
        assert a.events == b.events
        assert a.empirical_blocking == b.empirical_blocking
        assert a.utilization == b.utilization

    def test_event_log_consistency(self):
        metrics = run_logged(small_scenario(arrivals=20_000))
        occupied = 0
        admissions = 0
        departures = 0
        for t, kind, cls, decision, occ_after in metrics.events:
            if kind == "arrival":
                if decision == "accept":
                    occupied += 1
                    admissions += 1
            else:
                occupied -= 1
                departures += 1
            assert occ_after == occupied
            assert 0 <= occupied <= SMALL_CFG.n_channels
        assert departures <= admissions

    def test_class1_blocked_only_at_full_occupancy(self):
        metrics = run_logged(small_scenario(arrivals=50_000))
        occupied = 0
        for t, kind, cls, decision, occ_after in metrics.events:
            if kind == "arrival" and cls == 1 and decision == "block":
                assert occupied == SMALL_CFG.n_channels
            occupied = occ_after

    def test_partition_trace_invariants(self):
        metrics = run_simulation(
            small_scenario(arrivals=50_000, bypass_estimator=False, trace_stride=500)
        )
        assert metrics.partition_trace
        for rec in metrics.partition_trace:
            ys = rec[1:]
            assert ys[0] == SMALL_CFG.guard
            assert all(a >= b for a, b in zip(ys, ys[1:]))

    def test_estimator_trace_recorded(self):
        metrics = run_simulation(
            small_scenario(arrivals=20_000, bypass_estimator=False, trace_stride=500)
        )
        assert metrics.estimator_trace
        for rec in metrics.estimator_trace:
            assert all(r > 0 for r in rec[1:])


DYNAMIC_CASES = pytest.mark.parametrize(
    "config,rates",
    [
        (SystemConfig(20, 4, 1.0, 30), [9.0, 12.0, 6.0, 3.0]),   # ratio 3:4:2:1
        (SystemConfig(20, 10, 1.0, 5), [0.7, 0.3]),
        (SystemConfig(20, 4, 1.0, 10), [2.0, 1.5, 0.0, 1.0]),
    ],
    ids=["3:4:2:1", "0.7:0.3-gamma10", "rate-0-class"],
)


class TestDynamicFastPath:
    # with trace_stride = 1 every arrival records the guard access the loop
    # used and the estimate vector it came from; the full allocator must
    # derive the same partition from that vector
    @DYNAMIC_CASES
    def test_every_arrival_matches_compute_partition(self, config, rates):
        metrics = run_logged(
            SimScenario(config=config, rates=tuple(rates), arrivals=20_000, seed=2, trace_stride=1)
        )
        arrivals = [ev for ev in metrics.events if ev[1] == "arrival"]
        assert len(metrics.partition_trace) == len(metrics.estimator_trace) == len(arrivals)
        for access_row, est_row, (t, _, cls, decision, occ_after) in zip(
            metrics.partition_trace, metrics.estimator_trace, arrivals
        ):
            assert access_row[0] == est_row[0] == t
            part = compute_partition(config, est_row[1:])
            assert access_row[1:] == part.guard_access
            # the admission decision used the limits of that partition
            occ_before = occ_after - 1 if decision == "accept" else occ_after
            assert (decision == "accept") == (occ_before < part.limits[cls - 1])
        # the estimates moved the partition, so the check saw real updates
        assert len({row[1:] for row in metrics.partition_trace}) > 1

    # the rows before the estimator is ready take the configured rates, and
    # the first ready row the windows' estimates, as in the reference loop
    @DYNAMIC_CASES
    def test_cold_start_boundary_matches_reference(self, config, rates):
        scenario = SimScenario(config=config, rates=tuple(rates), arrivals=2_000, seed=2,
                               trace_stride=1)
        assert asdict(run_simulation(scenario)) == asdict(run_simulation_reference(scenario))

    def test_rate_zero_class_leaves_the_cold_start(self):
        # a class configured at rate 0 never gets a gap; it counts as ready
        # with estimate 0.0, so the other classes' estimates take over
        metrics = run_simulation(
            SimScenario(config=SystemConfig(100, 10, 1 / 120, 100),
                        rates=(0.5, 0.3, 0.0),
                        arrivals=20_000, seed=0)
        )
        rows = [rec[1:] for rec in metrics.estimator_trace]
        assert len(rows) == 20
        assert all(row[2] == 0.0 for row in rows)
        assert all(row != (0.5, 0.3, 0.0) for row in rows)


@st.composite
def limit_stage_blocks(draw):
    """A block for the limit stage: (config, rates, cls, own, latest,
    split). As in a run, a class's own estimates are nan until some row and
    finite from then on, ``latest`` is nan only for a class still in that
    prefix and 0.0 for a class configured at rate 0, which never arrives.
    ``split`` is a row at which to cut the block in two."""
    m_count = draw(st.integers(min_value=1, max_value=4))
    rates = tuple(draw(st.lists(st.just(0.0) | st.floats(min_value=0.05, max_value=50.0),
                                min_size=m_count, max_size=m_count).filter(any)))
    gamma = draw(st.integers(min_value=0, max_value=30))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # guard > N/2 warns
        config = SystemConfig(gamma + draw(st.integers(min_value=1, max_value=30)), gamma,
                              1.0, 10)
    estimate = st.floats(min_value=1e-3, max_value=1e3)
    latest = [draw(st.just(math.nan) | estimate) if r > 0 else 0.0 for r in rates]
    active = [m for m, r in enumerate(rates) if r > 0]
    cls = draw(st.lists(st.sampled_from(active), min_size=2, max_size=40))
    own = [draw(estimate) for _ in cls]
    for m in active:
        if math.isnan(latest[m]):
            rows = [i for i, c in enumerate(cls) if c == m]
            for i in rows[:draw(st.integers(min_value=0, max_value=len(rows)))]:
                own[i] = math.nan
    split = draw(st.integers(min_value=1, max_value=len(cls) - 1))
    return config, rates, np.array(cls), np.array(own), latest, split


class TestLimitStage:
    # the limit stage on its own: each row's vector is built here one row at
    # a time, so a row the stage gives the wrong vector shows, warm or ready
    @settings(max_examples=200, deadline=None)
    @given(block=limit_stage_blocks())
    # the estimator gets ready at row 3, whose estimates (5, 1) give another
    # partition than the configured rates (1, 3)
    @example(block=(SystemConfig(20, 10, 1.0, 10), (1.0, 3.0), np.array([0, 1, 0, 1]),
                    np.array([math.nan, math.nan, 5.0, 1.0]), [math.nan, math.nan], 2))
    def test_rows_match_compute_partition(self, block):
        config, rates, cls, own, latest, split = block
        y, columns, after = simulate._estimated_access(cls, own, latest, rates, config)
        configured = compute_partition(config, rates).guard_access
        vector = list(latest)
        # ready from the first row whose vector has no nan: the block's first
        # row if latest has none
        ready = False
        for row, (m, estimate) in enumerate(zip(cls.tolist(), own.tolist())):
            vector[m] = estimate
            ready = ready or not any(math.isnan(v) for v in vector)
            if ready:
                assert tuple(y[:, row].tolist()) == compute_partition(config, vector).guard_access
                assert columns[:, row].tolist() == vector
            else:
                assert tuple(y[:, row].tolist()) == configured
        assert np.array_equal(after, vector, equal_nan=True)

        # the carried latest makes two blocks one
        head = simulate._estimated_access(cls[:split], own[:split], latest, rates, config)
        tail = simulate._estimated_access(cls[split:], own[split:], head[2], rates, config)
        assert np.array_equal(np.hstack((head[0], tail[0])), y)
        assert np.array_equal(np.hstack((head[1], tail[1])), columns, equal_nan=True)
        assert np.array_equal(tail[2], after, equal_nan=True)


class _QuantisedRng:
    """A generator whose exponential draws land on a 1/4 grid (and are never
    0), so arrival and departure times tie often and exactly."""

    def __init__(self, rng):
        self.rng = rng

    def exponential(self, scale, size=None):
        return np.floor(self.rng.exponential(scale, size) * 4) / 4 + 0.25


class _FlooredRng:
    """A generator whose exponential draws are floored to a 1/4 grid, so
    that many of them are exactly 0.0."""

    def __init__(self, rng):
        self.rng = rng

    def exponential(self, scale, size=None):
        return np.floor(self.rng.exponential(scale, size) * 4) / 4


class _MeanRng:
    """A generator whose exponential draws are their mean, exactly."""

    def __init__(self, rng):
        pass

    def exponential(self, scale, size=None):
        return float(scale) if size is None else np.full(size, float(scale))


class _ZeroHoldRng:
    """A generator whose exponential draws are their mean, except holding
    times, which are 0.0: a draw with the mean holding time 1 / MU is one."""

    MU = 4.0

    def __init__(self, rng):
        pass

    def exponential(self, scale, size=None):
        value = 0.0 if scale == 1.0 / self.MU else float(scale)
        return value if size is None else np.full(size, value)


class _ZeroGapRng:
    """A generator whose first chunk of exponential draws holds a 0.0 at
    index 5, so an arrival stream drawn from it repeats an arrival time."""

    def __init__(self, rng):
        self.rng = rng
        self.drawn = False

    def exponential(self, scale, size=None):
        draws = self.rng.exponential(scale, size)
        if not self.drawn:
            draws[5] = 0.0
            self.drawn = True
        return draws


def _wrap_draws(patch, wrapper):
    default_rng = np.random.default_rng
    patch.setattr(np.random, "default_rng", lambda seed: wrapper(default_rng(seed)))


def _quantise_draws(patch):
    _wrap_draws(patch, _QuantisedRng)


@st.composite
def scenarios(draw):
    m_count = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=30))
    rate = st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=8.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # guard > N/2 warns
        config = SystemConfig(
            n,
            draw(st.integers(min_value=0, max_value=n)),
            draw(st.floats(min_value=0.1, max_value=4.0)),
            draw(st.integers(min_value=1, max_value=40)),
        )
    return SimScenario(
        config=config,
        rates=tuple(draw(st.lists(rate, min_size=m_count, max_size=m_count))),
        arrivals=draw(st.integers(min_value=1, max_value=1500)),
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        policy=draw(st.sampled_from(["dynamic", "sharing"])),
        warmup=draw(st.sampled_from([0.0, 0.1, 0.5])),
        bypass_estimator=draw(st.booleans()),
        trace_stride=draw(st.integers(min_value=1, max_value=60)),
    )


class TestMergeStage:
    # the merge stage against the one that searched every class's times on
    # every round, block after block: every column and every stream's
    # remaining draws
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    # floored draws give gaps of 0.0 and equal times within and across
    # classes; a class at rate 0 has no stream, so the class indices skip it
    @given(rates=st.lists(st.just(0.0) | st.floats(min_value=0.05, max_value=8.0),
                          min_size=1, max_size=5).filter(any),
           seed=st.integers(min_value=0, max_value=2**32 - 1), floored=st.booleans(),
           chunk=st.sampled_from([1, 7, simulate._RNG_CHUNK]),
           sizes=st.lists(st.integers(min_value=1, max_value=700), min_size=1, max_size=6))
    def test_matches_reference(self, monkeypatch, rates, seed, floored, chunk, sizes):
        monkeypatch.setattr(simulate, "_RNG_CHUNK", chunk)
        seeds = np.random.SeedSequence(seed).spawn(2 * len(rates))

        def streams():
            made = []
            for m, rate in enumerate(rates):
                if rate > 0:
                    # a window takes only strictly increasing times
                    window = None if floored else ArrivalWindow(m + 1, 5)
                    made.append(simulate._ClassStream(m, rate, seeds[m], seeds[len(rates) + m],
                                                      1.0, window))
                    if floored:
                        made[-1].arrival_rng = _FlooredRng(made[-1].arrival_rng)
            return made

        ours, theirs = streams(), streams()
        classes = np.array([s.m for s in ours])
        for size in sizes:
            got = simulate._merge(ours, classes, size)
            want = merge_reference(theirs, classes, size)
            for column, expected in zip(got, want):
                assert (column is None and expected is None) or np.array_equal(
                    column, expected, equal_nan=True)
            for a, b in zip(ours, theirs):
                assert a.last == b.last
                for name in ("times", "holds", "estimates"):
                    assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True)


@st.composite
def admission_blocks(draw):
    """A block for the admission stage and the state it starts from: N, M, the
    block's columns (times, class indices, departure times, limits), the
    carried departures' times and classes, the last event time, the area so
    far and the warm row (None for none). The times lie on a grid of 1/4 or
    of 1 if drawn so, which ties arrivals and departures; holding times are
    0.0 often; the limits of each row are drawn from 0 to N; and some carried
    departures are due exactly at a row's time or at the last event's."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = draw(st.integers(min_value=1, max_value=12))
    size = draw(st.sampled_from([1, 7, 1024]))
    m_count = draw(st.integers(min_value=1, max_value=4))
    grid = draw(st.sampled_from([None, 0.25, 1.0]))
    load = draw(st.sampled_from([0.3, 1.0, 3.0]))

    def on_grid(values):
        return values if grid is None else np.floor(values / grid) * grid

    last_t = draw(st.sampled_from([0.0, 0.75, 1e4 + 0.5]))
    times = last_t + np.cumsum(on_grid(rng.exponential(1.0, size)))
    holds = on_grid(rng.exponential(n * load, size))
    holds[rng.random(size) < draw(st.sampled_from([0.0, 0.2, 0.9]))] = 0.0
    cls = rng.integers(0, m_count, size)
    limits = rng.integers(0, n + 1, size) if draw(st.booleans()) else np.full(size, n)
    carried = draw(st.integers(min_value=0, max_value=n))
    pending_t = last_t + on_grid(rng.exponential(n * load, carried))
    tied = rng.random(carried) < 0.3
    pending_t[tied] = rng.choice(np.append(times, last_t), int(tied.sum()))
    pending_m = rng.integers(0, m_count, carried)
    area = draw(st.sampled_from([0.0, 17.25, 1e6 / 3]))
    warm = draw(st.sampled_from([None, 0, size // 2, size - 1]))
    pending = pending_t, pending_m
    return n, m_count, (times, cls, times + holds, limits), pending, last_t, area, warm


def admit_by_reference(block):
    """The blocked rows, the occupancy, the area, the last event time, the
    event batch and the pending departures, of the block taken through the
    plain loop and the event rebuild the stage replaced."""
    _, _, (times, cls, departs, limits), pending, last_t, area, warm = block
    departures = [math.inf, *pending[0].tolist()]
    heapq.heapify(departures)
    occupied, blocked = len(pending[0]), []
    rows = zip(count(), times.tolist(), departs.tolist(), limits.tolist())
    if warm is not None:
        occupied, area, last_t = admit_reference(
            islice(rows, warm + 1), departures, occupied, area, last_t, blocked)
        area = 0.0
    after = admit_reference(rows, departures, occupied, area, last_t, blocked)
    batch, left = block_events_reference(times, cls, departs, blocked, pending,
                                         len(pending[0]))
    return blocked, after, batch, left, sorted(departures)[:-1]


class TestAdmissionStage:
    # the admission stage against the loop it replaced: every blocked row,
    # the occupancy, the carried departures, the event batch and the area,
    # bit for bit
    @settings(max_examples=250, deadline=None)
    @given(block=admission_blocks())
    # row 0 is due a carried departure at its own time and row 1 has limit 0;
    # row 0's call leaves at once (a zero hold), before row 1 at that time
    @example(block=(2, 2, (np.array([1.0, 1.0, 2.0]), np.array([0, 1, 0]),
                        np.array([1.0, 3.0, 2.0]), np.array([1, 0, 2])),
                    (np.array([1.0, 4.0]), np.array([1, 0])), 0.5, 3.0, 1))
    def test_matches_reference_loop(self, block):
        n, m_count, columns, (pending_t, pending_m), last_t, area, warm = block
        stage = Admission(n, m_count, block=1024)
        stage.pending, stage.area, stage.last_t = len(pending_t), area, last_t
        stage.dt[:stage.pending], stage.dm[:stage.pending] = pending_t, pending_m
        batches = []
        blocked = stage.admit(*columns, -1 if warm is None else warm,
                              sink=lambda *batch: batches.append(batch))
        want_blocked, (occupied, want_area, want_last_t), want_batch, left, heap = (
            admit_by_reference(block))
        assert blocked == want_blocked
        assert stage.pending == occupied == len(heap)
        assert stage.area.hex() == want_area.hex()
        assert stage.last_t == want_last_t
        (batch,) = batches
        for got, want in zip(batch, want_batch):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(stage.dt[:stage.pending], left[0])
        assert np.array_equal(stage.dm[:stage.pending], left[1])
        assert sorted(stage.dt[:stage.pending].tolist()) == heap

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           size=st.integers(min_value=1, max_value=300),
           count=st.integers(min_value=0, max_value=400))
    def test_sorted_slot_search_matches_searchsorted(self, seed, size, count):
        # times and keys on a 1/4 grid: times repeat, and keys equal each
        # other and the times exactly. Whatever order a sort gives equal
        # keys, stable, unstable or reversed, every slot is the same
        rng = np.random.default_rng(seed)
        times = np.cumsum(np.floor(rng.exponential(0.5, size) * 4) / 4)
        keys = np.floor(rng.uniform(-1.0, times[-1] + 1.0, count) * 4) / 4
        tied = rng.random(count) < 0.5
        keys[tied] = rng.choice(times, int(tied.sum()))
        want = times.searchsorted(keys, "left")
        for order in (keys.argsort(kind="stable"), keys.argsort(kind="quicksort"),
                      np.lexsort((-np.arange(count), keys))):
            slots = np.full(count, -1, dtype=np.intp)
            search_slots(times, keys, order, slots)
            assert np.array_equal(slots, want)

    @pytest.mark.parametrize("length", [10, 1000, 100_000])
    def test_cumsum_adds_left_to_right(self, length):
        # the stage's area is one np.cumsum over the terms of the events; it
        # matches a loop only if cumsum adds one term at a time, left to
        # right, unlike np.sum's pairwise adds
        rng = np.random.default_rng(length)
        terms = rng.exponential(1.0, length) * 10.0 ** rng.integers(-12, 13, length)
        total, sums = 0.0, []
        for term in terms.tolist():
            total += term
            sums.append(total)
        assert np.array_equal(np.cumsum(terms).view(np.int64),
                              np.array(sums).view(np.int64))


class TestMatchesReferenceLoop:
    # the loop's merged arrival chunks, departures-only heap and cached floor
    # rule must give exactly what the plain one-heap loop gives: every count,
    # float, trace row and event; with a sink or without one
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    # blocks of 1 and 7 rows carry pending departures across many block
    # boundaries, where the event log must place them as the heap pops them.
    # Floored draws are often 0.0, so a call can depart at its own arrival
    # time; they also repeat arrival times, which only the sharing policy,
    # without the window estimator, accepts
    @given(scenario=scenarios(), logged=st.booleans(),
           draws=st.sampled_from([None, _QuantisedRng, _FlooredRng]),
           block=st.sampled_from([1, 7, 64, 1024]))
    # class 3's second chunk of 512 draws starts with a 0.0 gap, so its
    # 513th arrival, the run's 957th, is at the time of its 512th, the last
    # it drew before, and goes before class 4's arrival at that time
    @example(scenario=SimScenario(config=SystemConfig(1, 0, 1.0, 1),
                                  rates=(0.0, 0.0, 3.5, 3.0), arrivals=957, seed=1),
             logged=False, draws=_FlooredRng, block=1024)
    def test_same_metrics_as_reference(self, monkeypatch, scenario, logged, draws, block):
        with monkeypatch.context() as patch:
            patch.setattr(simulate, "_BLOCK", block)
            if draws is not None:
                _wrap_draws(patch, draws)
            if draws is _FlooredRng:
                scenario = replace(scenario, policy="sharing")
            metrics = (run_logged if logged else run_simulation)(scenario)
            assert asdict(metrics) == asdict(
                run_simulation_reference(scenario, record_events=logged))

    def test_quantised_draws_tie(self, monkeypatch):
        # the grid makes departures coincide with arrivals, the case where
        # the order of the two decides the admission
        _quantise_draws(monkeypatch)
        scenario = SimScenario(config=SystemConfig(4, 1, 1.0, 10),
                               rates=(2.0, 1.0),
                               arrivals=2000, seed=3)
        metrics = run_logged(scenario)
        departures = {ev[0] for ev in metrics.events if ev[1] == "departure"}
        tied = [ev for ev in metrics.events if ev[1] == "arrival" and ev[0] in departures]
        assert len(tied) > 100
        assert asdict(metrics) == asdict(run_simulation_reference(scenario, record_events=True))

    def test_quantised_draws_reach_every_draw(self, monkeypatch):
        # every arrival gap and holding time comes from a patched generator:
        # each event time is then a sum of quarters
        _quantise_draws(monkeypatch)
        metrics = run_logged(SimScenario(config=SystemConfig(4, 1, 1.0, 10),
                                         rates=(2.0, 0.0, 1.0), arrivals=3000, seed=5))
        assert any(ev[1] == "departure" for ev in metrics.events)
        assert all((ev[0] * 4).is_integer() for ev in metrics.events)

    @pytest.mark.parametrize("policy,bypass", [("dynamic", False), ("dynamic", True),
                                               ("sharing", False)])
    def test_chunk_size_does_not_change_the_run(self, monkeypatch, policy, bypass):
        scenario = SimScenario(config=SystemConfig(20, 4, 1.0, 30),
                               rates=(9.0, 12.0, 0.0, 3.0),
                               arrivals=5000, seed=9, policy=policy,
                               bypass_estimator=bypass, trace_stride=7)
        runs = []
        # (draw chunk, block): draw chunks under blocks of 1024 and 2048
        # rows, then blocks of one row, smaller than a chunk and not a
        # multiple of one
        for chunk, block in [(1, 1024), (7, 1024), (128, 1024), (512, 1024), (512, 2048),
                             (256, 1), (256, 100), (7, 700), (256, 700), (2048, 7)]:
            monkeypatch.setattr(simulate, "_RNG_CHUNK", chunk)
            monkeypatch.setattr(simulate, "_BLOCK", block)
            runs.append(asdict(run_logged(scenario)))
        for run in runs[1:]:
            assert run == runs[0]

    # warm-up counts at and around the draw chunk and block boundaries: the
    # first measured arrival opens a block, closes one, or sits inside one,
    # and the last arrival is the only one measured; warmup = k / arrivals
    # is exact
    @pytest.mark.parametrize("warmup_count", sorted({
        0, 1, simulate._RNG_CHUNK - 1, simulate._RNG_CHUNK, simulate._RNG_CHUNK + 1,
        simulate._BLOCK - 1, simulate._BLOCK, simulate._BLOCK + 1, 2 * simulate._BLOCK - 1,
    }))
    @pytest.mark.parametrize("policy", ["dynamic", "sharing"])
    @pytest.mark.parametrize("logged", [False, True])
    def test_warmup_boundaries_match_reference(self, warmup_count, policy, logged):
        arrivals = 2 * simulate._BLOCK
        scenario = SimScenario(config=SystemConfig(12, 3, 1.0, 20), rates=(6.0, 4.0, 3.0),
                               arrivals=arrivals, seed=21, policy=policy,
                               warmup=warmup_count / arrivals, trace_stride=5)
        metrics = (run_logged if logged else run_simulation)(scenario)
        assert sum(metrics.per_class_arrivals) == arrivals - warmup_count
        # blocked rows fall on both sides of the split, except with one measured
        assert sum(metrics.per_class_blocks) > 0 or warmup_count == arrivals - 1
        assert asdict(metrics) == asdict(run_simulation_reference(scenario, record_events=logged))

    @pytest.mark.parametrize("block", [64, simulate._BLOCK])
    @pytest.mark.parametrize("policy", ["dynamic", "sharing"])
    def test_time_tie_across_a_block_boundary_matches_reference(self, monkeypatch, policy,
                                                                 block):
        # every draw is its mean: class 1 arrives at 1, 2, 3, ... and class 2
        # at block, 2 * block, ..., so rows block - 1 and block, the last of
        # one block and the first of the next, tie at time block
        _wrap_draws(monkeypatch, _MeanRng)
        monkeypatch.setattr(simulate, "_BLOCK", block)
        scenario = SimScenario(config=SystemConfig(4, 1, 0.25, 10), rates=(1.0, 1.0 / block),
                               arrivals=2 * block + 5, policy=policy)
        metrics = run_logged(scenario)
        arrivals = [ev[:3] for ev in metrics.events if ev[1] == "arrival"]
        assert arrivals[block - 1:block + 1] == [(block, "arrival", 1), (block, "arrival", 2)]
        assert asdict(metrics) == asdict(run_simulation_reference(scenario, record_events=True))

    @pytest.mark.parametrize("block", [7, 64, simulate._BLOCK])
    def test_zero_holding_time_across_a_block_boundary(self, monkeypatch, block):
        # class 1 arrives at 1, 2, 3, ... and class 2 at block, 2 * block,
        # ..., and every holding time is 0.0: the call admitted on row
        # block - 1, the last of a block, departs at the time of row block,
        # the first of the next, and must leave before that arrival, not
        # before its own
        _wrap_draws(monkeypatch, _ZeroHoldRng)
        monkeypatch.setattr(simulate, "_BLOCK", block)
        scenario = SimScenario(config=SystemConfig(4, 1, _ZeroHoldRng.MU, 10),
                               rates=(1.0, 1.0 / block), arrivals=2 * block + 5,
                               policy="sharing")
        metrics = run_logged(scenario)
        at = [ev for ev in metrics.events if ev[0] == block]
        assert at == [(block, "arrival", 1, "accept", 1), (block, "departure", 1, "release", 0),
                      (block, "arrival", 2, "accept", 1), (block, "departure", 2, "release", 0)]
        assert asdict(metrics) == asdict(run_simulation_reference(scenario, record_events=True))

    @pytest.mark.parametrize("policy", ["dynamic", "sharing"])
    def test_tiny_rate_matches_reference(self, policy):
        # class 1's drawn-ahead arrival times overflow to inf after a few
        # arrivals near 1e308, none of which the run reaches
        scenario = SimScenario(config=SystemConfig(20, 4, 1.0, 30), rates=(1e-307, 1.0),
                               arrivals=3000, seed=5, policy=policy)
        metrics = run_logged(scenario)
        assert metrics.per_class_arrivals[0] == 0
        assert asdict(metrics) == asdict(run_simulation_reference(scenario, record_events=True))

    @pytest.mark.parametrize("logged", [False, True])
    def test_zero_holding_times_match_reference(self, monkeypatch, logged):
        # draws floored to a 1/4 grid are often 0.0: a call then departs at
        # its own arrival time, before the next arrival is tested
        _wrap_draws(monkeypatch, _FlooredRng)
        scenario = SimScenario(config=SystemConfig(4, 1, 1.0, 10), rates=(2.0, 1.0),
                               arrivals=3000, seed=4, policy="sharing")
        metrics = (run_logged if logged else run_simulation)(scenario)
        assert asdict(metrics) == asdict(run_simulation_reference(scenario, record_events=logged))
        if logged:
            # a departure logged after an accepted arrival at the same time
            # can only be a call that arrived then with a 0.0 holding time
            events = metrics.events
            assert any(ev[3] == "accept" and nxt[1] == "departure" and nxt[0] == ev[0]
                       for ev, nxt in zip(events, events[1:]))


class TestRuntimeFaults:
    def test_repeated_arrival_time_raises(self, monkeypatch):
        # the window estimator needs strictly increasing arrival times
        _wrap_draws(monkeypatch, _ZeroGapRng)
        scenario = SimScenario(config=SystemConfig(20, 4, 1.0, 30), rates=(9.0, 12.0),
                               arrivals=2000, seed=1)
        with pytest.raises(ValueError, match="strictly increasing"):
            run_simulation(scenario)


    def test_arrival_time_overflow_raises(self):
        # 1 / 1e-320 overflows, so every arrival time of the class is inf
        scenario = SimScenario(config=SystemConfig(5, 1, 1.0, 10), rates=(1e-320,),
                               arrivals=10, policy="sharing")
        with pytest.raises(ValueError, match="overflow"):
            run_simulation(scenario)


def peak_traced_bytes(scenario) -> int:
    tracemalloc.start()
    try:
        run_simulation(scenario)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("policy", ["dynamic", "sharing"])
def test_memory_does_not_grow_with_run_length(policy):
    # without events a run holds one block of arrivals and the pending
    # departures, whatever its length
    scenario = SimScenario(config=SystemConfig(100, 10, 1 / 120, 100),
                           rates=(0.25, 1 / 3, 1 / 6, 1 / 12),
                           arrivals=5_000, seed=8, policy=policy)
    run_simulation(scenario)     # the first run's one-time set-up is not measured
    short = peak_traced_bytes(scenario)
    long = peak_traced_bytes(replace(scenario, arrivals=40_000))
    assert long < 1.5 * short, (short, long)


class TestComparePolicies:
    def test_no_guard_identical_decisions(self):
        cfg = SystemConfig(5, 0, 1.0, 50)
        rates = (2.0, 2.0)
        sc = SimScenario(config=cfg, rates=rates, arrivals=30_000, seed=3)
        dyn, share = (run_logged(replace(sc, policy=p)) for p in ("dynamic", "sharing"))
        assert dyn.events == share.events

    def test_heavy_load_shifts_blocking_to_low_priority(self):
        cfg = SystemConfig(20, 4, 1.0, 50)
        # 3:4:2:1 ratio at heavy load
        rates = (9.0, 12.0, 6.0, 3.0)
        sc = SimScenario(config=cfg, rates=rates, arrivals=300_000, seed=5)
        dyn, share = (run_simulation(replace(sc, policy=p)) for p in ("dynamic", "sharing"))
        assert dyn.empirical_blocking[0] < share.empirical_blocking[0]
        assert dyn.empirical_blocking[3] > share.empirical_blocking[3]

    def test_light_load_utilization_close(self):
        cfg = SystemConfig(20, 4, 1.0, 50)
        rates = (1.0, 1.0, 1.0, 1.0)
        sc = SimScenario(config=cfg, rates=rates, arrivals=200_000, seed=5)
        dyn, share = (run_simulation(replace(sc, policy=p)) for p in ("dynamic", "sharing"))
        assert abs(dyn.utilization - share.utilization) < 0.01


class TestScenarioValidation:
    def test_bad_warmup(self):
        with pytest.raises(ValueError):
            small_scenario(warmup=1.0)

    def test_bad_policy(self):
        with pytest.raises(ValueError):
            small_scenario(policy="greedy")

    def test_bad_arrivals(self):
        with pytest.raises(ValueError):
            small_scenario(arrivals=0)

    def test_bad_seed(self):
        with pytest.raises(ValueError, match="seed"):
            small_scenario(seed=-1)

    # checked in the constructor, not left to fail inside the run
    @pytest.mark.parametrize("name,value", [("arrivals", 2500.5), ("seed", 1.5),
                                            ("trace_stride", 2.5)])
    def test_float_for_integer_field_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name}: must be an integer"):
            small_scenario(**{name: value})

    @pytest.mark.parametrize("name,value", [("warmup", "0.1"), ("arrivals", True)])
    def test_wrong_type_is_field_error(self, name, value):
        with pytest.raises(FieldError, match=f"^{name}: must be .*, got {value!r}$"):
            small_scenario(**{name: value})

    @pytest.mark.parametrize("rates", [(), (1.0, -0.5), (math.inf, 1.0), (math.nan, 1.0),
                                       (1e308, 1e308), None, 5, "12", b"12",
                                       memoryview(b"12"), ["a"], (r for r in (1.0, 2.0))],
                             ids=["()", "-0.5", "inf", "nan", "1e308+1e308", "None", "5",
                                  "'12'", "b'12'", "memoryview(b'12')", "['a']", "generator"])
    def test_bad_rates_rejected(self, rates):
        # one rate rule, the empty vector included, checked on the value as
        # given, before it is converted
        with pytest.raises(FieldError, match=r"^rates: must be one or more entries") as exc:
            small_scenario(rates=rates)
        assert exc.value.name == "rates"

    def test_replace_policy_keeps_draws_paired(self):
        sc = small_scenario(arrivals=20_000)
        a = run_simulation(replace(sc, policy="dynamic"))
        b = run_simulation(replace(sc, policy="dynamic"))
        assert a.empirical_blocking == b.empirical_blocking
