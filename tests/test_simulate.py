import math
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import run_simulation_reference
from qosguard import simulate
from qosguard.allocator import SystemConfig, compute_partition
from qosguard.markov import blocking_probabilities, erlang_b
from qosguard.simulate import SimScenario, compare_policies, run_simulation

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
        sc = small_scenario(arrivals=50_000, bypass_estimator=False, record_events=True)
        a = run_simulation(sc)
        b = run_simulation(sc)
        assert a.events == b.events
        assert a.empirical_blocking == b.empirical_blocking
        assert a.utilization == b.utilization

    def test_event_log_consistency(self):
        metrics = run_simulation(small_scenario(arrivals=20_000, record_events=True))
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

    def test_arrivals_split_blocks_plus_admissions(self):
        metrics = run_simulation(small_scenario(arrivals=30_000))
        for m in range(2):
            assert metrics.per_class_arrivals[m] == (
                metrics.per_class_blocks[m] + metrics.per_class_admissions[m]
            )

    def test_class1_blocked_only_at_full_occupancy(self):
        metrics = run_simulation(small_scenario(arrivals=50_000, record_events=True))
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


class TestDynamicFastPath:
    # with trace_stride = 1 every arrival records the guard access the loop
    # used and the estimate vector it came from; the full allocator must
    # derive the same partition from that vector
    @pytest.mark.parametrize(
        "config,rates",
        [
            (SystemConfig(20, 4, 1.0, 30), [9.0, 12.0, 6.0, 3.0]),   # ratio 3:4:2:1
            (SystemConfig(20, 10, 1.0, 5), [0.7, 0.3]),
            (SystemConfig(20, 4, 1.0, 10), [2.0, 1.5, 0.0, 1.0]),
        ],
        ids=["3:4:2:1", "0.7:0.3-gamma10", "rate-0-class"],
    )
    def test_every_arrival_matches_compute_partition(self, config, rates):
        metrics = run_simulation(
            SimScenario(config=config, rates=tuple(rates),
                        arrivals=20_000, seed=2, trace_stride=1, record_events=True)
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


class _QuantisedRng:
    """A generator whose exponential draws land on a 1/4 grid (and are never
    0), so arrival and departure times tie often and exactly."""

    def __init__(self, rng):
        self.rng = rng

    def exponential(self, scale, size=None):
        return np.floor(self.rng.exponential(scale, size) * 4) / 4 + 0.25


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
        record_events=draw(st.booleans()),
    )


class TestMatchesReferenceLoop:
    # the loop's merged arrival chunks, departures-only heap and cached floor
    # rule must give exactly what the plain one-heap loop gives: every count,
    # float, trace row and event
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(scenario=scenarios(), quantised=st.booleans())
    def test_same_metrics_as_reference(self, monkeypatch, scenario, quantised):
        with monkeypatch.context() as patch:
            if quantised:
                _quantise_draws(patch)
            assert asdict(run_simulation(scenario)) == asdict(
                run_simulation_reference(scenario))

    def test_quantised_draws_tie(self, monkeypatch):
        # the grid makes departures coincide with arrivals, the case where
        # the order of the two decides the admission
        _quantise_draws(monkeypatch)
        scenario = SimScenario(config=SystemConfig(4, 1, 1.0, 10),
                               rates=(2.0, 1.0),
                               arrivals=2000, seed=3, record_events=True)
        metrics = run_simulation(scenario)
        departures = {ev[0] for ev in metrics.events if ev[1] == "departure"}
        tied = [ev for ev in metrics.events if ev[1] == "arrival" and ev[0] in departures]
        assert len(tied) > 100
        assert asdict(metrics) == asdict(run_simulation_reference(scenario))

    def test_quantised_draws_reach_every_draw(self, monkeypatch):
        # every arrival gap and holding time comes from a patched generator:
        # each event time is then a sum of quarters
        _quantise_draws(monkeypatch)
        metrics = run_simulation(SimScenario(config=SystemConfig(4, 1, 1.0, 10),
                                             rates=(2.0, 0.0, 1.0),
                                             arrivals=3000, seed=5, record_events=True))
        assert any(ev[1] == "departure" for ev in metrics.events)
        assert all((ev[0] * 4).is_integer() for ev in metrics.events)

    @pytest.mark.parametrize("policy,bypass", [("dynamic", False), ("dynamic", True),
                                               ("sharing", False)])
    def test_chunk_size_does_not_change_the_run(self, monkeypatch, policy, bypass):
        scenario = SimScenario(config=SystemConfig(20, 4, 1.0, 30),
                               rates=(9.0, 12.0, 0.0, 3.0),
                               arrivals=5000, seed=9, policy=policy,
                               bypass_estimator=bypass, trace_stride=7,
                               record_events=True)
        runs = {}
        for chunk in (1, 7, 128, 512):
            monkeypatch.setattr(simulate, "_RNG_CHUNK", chunk)
            runs[chunk] = asdict(run_simulation(scenario))
        assert runs[1] == runs[7] == runs[128] == runs[512]


class TestRuntimeFaults:
    def test_repeated_arrival_time_raises(self, monkeypatch):
        # the window estimator needs strictly increasing arrival times
        _wrap_draws(monkeypatch, _ZeroGapRng)
        scenario = SimScenario(config=SystemConfig(20, 4, 1.0, 30), rates=(9.0, 12.0),
                               arrivals=2000, seed=1)
        with pytest.raises(ValueError, match="strictly increasing"):
            run_simulation(scenario)


class TestComparePolicies:
    def test_no_guard_identical_decisions(self):
        cfg = SystemConfig(5, 0, 1.0, 50)
        rates = (2.0, 2.0)
        sc = SimScenario(
            config=cfg, rates=rates, arrivals=30_000, seed=3, record_events=True
        )
        dyn, share = compare_policies(sc)
        assert dyn.events == share.events

    def test_heavy_load_shifts_blocking_to_low_priority(self):
        cfg = SystemConfig(20, 4, 1.0, 50)
        # 3:4:2:1 ratio at heavy load
        rates = (9.0, 12.0, 6.0, 3.0)
        sc = SimScenario(config=cfg, rates=rates, arrivals=300_000, seed=5)
        dyn, share = compare_policies(sc)
        assert dyn.empirical_blocking[0] < share.empirical_blocking[0]
        assert dyn.empirical_blocking[3] > share.empirical_blocking[3]

    def test_light_load_utilization_close(self):
        cfg = SystemConfig(20, 4, 1.0, 50)
        rates = (1.0, 1.0, 1.0, 1.0)
        sc = SimScenario(config=cfg, rates=rates, arrivals=200_000, seed=5)
        dyn, share = compare_policies(sc)
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

    @pytest.mark.parametrize("rates", [(), (1.0, -0.5), (math.inf, 1.0), (math.nan, 1.0),
                                       (1e308, 1e308)],
                             ids=["()", "-0.5", "inf", "nan", "1e308+1e308"])
    def test_bad_rates_rejected(self, rates):
        with pytest.raises(ValueError):
            small_scenario(rates=rates)

    def test_replace_policy_keeps_draws_paired(self):
        sc = small_scenario(arrivals=20_000)
        a = run_simulation(replace(sc, policy="dynamic"))
        b = run_simulation(replace(sc, policy="dynamic"))
        assert a.empirical_blocking == b.empirical_blocking
