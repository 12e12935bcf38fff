"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on passing runs as well.
"""

import math
import time

import numpy as np
import pytest

from qosguard.allocator import SystemConfig, compute_partition
from qosguard.cli import run_experiment
from qosguard.config import parse_config
from qosguard.markov import blocking_probabilities, erlang_b, steady_state
from qosguard.simulate import SimScenario, run_simulation
from qosguard.traffic import ArrivalWindow
from qosguard.vlc import (
    OpticalLinkParams,
    band_widths,
    concentrator_gain,
    decode_band_mask,
    enumerate_masks,
    lambertian_order,
    los_channel_gain,
)

from oracles import dense_steady_state, exact_partition, guard_birth_rate

MU = 1 / 120


def _report(num: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_erlang_b_degeneration():
    t0 = time.perf_counter()
    cfg = SystemConfig(100, 0, MU, 100)
    worst = 0.0
    for load in (60, 80, 100, 120):
        lam_t = load * MU
        rates = (lam_t / 4,) * 4
        part = compute_partition(cfg, rates)
        rep = blocking_probabilities(cfg, [part.limits], [rates])
        expected = erlang_b(100, load)
        worst = max(worst, max(abs(b - expected) for b in rep.per_class[0]))
    elapsed = time.perf_counter() - t0
    _report(1, worst < 1e-9 and elapsed < 1.0,
            f"max |B_m - ErlangB| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_small_chain_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_state = 0.0
    worst_block = 0.0
    cases = 0
    while cases < 50:
        n = int(rng.integers(2, 21))
        gamma = int(rng.integers(0, n // 2 + 1))
        m = int(rng.choice([2, 3, 4]))
        rates = tuple(float(r) for r in rng.uniform(0.1, float(n), size=m))
        cfg = SystemConfig(n, gamma, 1.0, 100)
        part = compute_partition(cfg, rates)
        probs = steady_state(cfg, [part.limits], [rates])[0]
        oracle = dense_steady_state(n, 1.0, guard_birth_rate(part.limits, rates))
        worst_state = max(worst_state, float(np.max(np.abs(probs - oracle))))
        rep = blocking_probabilities(cfg, [part.limits], [rates])
        for b, n_m in zip(rep.per_class[0], part.limits):
            worst_block = max(worst_block, abs(b - oracle[n_m:].sum()))
        cases += 1
    elapsed = time.perf_counter() - t0
    _report(2, worst_state < 1e-10 and worst_block < 1e-10 and elapsed < 5.0,
            f"50 cases, max state err {worst_state:.2e}, "
            f"max blocking err {worst_block:.2e}, {elapsed:.2f}s")


def test_criterion_3_worked_instance():
    t0 = time.perf_counter()
    cfg = SystemConfig(3, 1, 1.0, 100)
    part = compute_partition(cfg, (1.0, 1.0))
    rep = blocking_probabilities(cfg, [part.limits], [(1.0, 1.0)])
    analytic_ok = (
        abs(rep.per_class[0][0] - 2 / 17) < 1e-12 and abs(rep.per_class[0][1] - 8 / 17) < 1e-12
    )

    metrics = run_simulation(
        SimScenario(
            config=cfg,
            rates=(1.0, 1.0),
            arrivals=1_000_000,
            seed=17,
            bypass_estimator=True,
        )
    )
    sim_ok = True
    for m, expected in enumerate([2 / 17, 8 / 17]):
        n_arr = metrics.per_class_arrivals[m]
        se = math.sqrt(expected * (1 - expected) / n_arr)
        sim_ok &= abs(metrics.empirical_blocking[m] - expected) < 3 * se
    elapsed = time.perf_counter() - t0
    _report(3, analytic_ok and sim_ok and elapsed < 30.0,
            f"analytic B=({rep.per_class[0][0]:.6f},{rep.per_class[0][1]:.6f}), "
            f"simulated B={tuple(round(b, 4) for b in metrics.empirical_blocking)}, "
            f"{elapsed:.1f}s")


def test_criterion_4_simulation_analysis_agreement_paper_scale():
    # Blocking decisions are serially correlated (congested periods persist
    # over the holding timescale), so the standard error comes from
    # independent replications, with a binomial floor for near-zero rates.
    t0 = time.perf_counter()
    cfg = SystemConfig(100, 10, MU, 100)
    reps = 10
    ok = True
    details = []
    for load in (60, 80, 90, 100, 120):
        lam_t = load * MU
        rates = (lam_t / 4,) * 4
        part = compute_partition(cfg, rates)
        rep = blocking_probabilities(cfg, [part.limits], [rates])
        runs = [
            run_simulation(
                SimScenario(
                    config=cfg,
                    rates=rates,
                    arrivals=200_000,
                    seed=1000 * load + r,
                    bypass_estimator=True,
                )
            )
            for r in range(reps)
        ]
        for m in range(4):
            emp = np.array([r.empirical_blocking[m] for r in runs])
            n_total = sum(r.per_class_arrivals[m] for r in runs)
            se = emp.std(ddof=1) / math.sqrt(reps)
            floor = math.sqrt(max(rep.per_class[0][m], 1e-12) / n_total)
            se = max(se, floor)
            if abs(emp.mean() - rep.per_class[0][m]) >= 3 * se:
                ok = False
                details.append(f"load {load} class {m + 1} blocking off")
        util = np.mean([r.utilization for r in runs])
        util_err = abs(util - rep.utilization[0])
        if util_err >= 0.01:
            ok = False
            details.append(f"load {load} utilization off by {util_err:.4f}")
    elapsed = time.perf_counter() - t0
    _report(4, ok and elapsed < 300.0,
            f"5 load points at N=100, {reps} replications each: "
            f"{'all within tolerance' if ok else '; '.join(details)}, {elapsed:.0f}s")


def test_criterion_5_figure_shape_claims():
    cfg = SystemConfig(100, 10, MU, 100)
    ok = True
    details = []
    for ratio in [(1, 1, 1, 1), (3, 4, 2, 1)]:
        for load in (20, 40, 60, 80, 100, 120, 150):
            lam_t = load * MU
            total = sum(ratio)
            rates = tuple(lam_t * f / total for f in ratio)
            part = compute_partition(cfg, rates)
            rep = blocking_probabilities(cfg, [part.limits], [rates])
            if not all(a <= b + 1e-15 for a, b in zip(rep.per_class[0], rep.per_class[0][1:])):
                ok = False
                details.append(f"{ratio}@{load}: blocking not monotone")
            b_sharing = erlang_b(100, load)
            if load >= 100 and not rep.per_class[0][0] < b_sharing:
                ok = False
                details.append(f"{ratio}@{load}: B_1 not below sharing")
            occ = rep.utilization[0] * 100
            low = load * (1 - erlang_b(90, load))
            high = load * (1 - erlang_b(100, load))
            if not (low - 1e-9 <= occ <= high + 1e-9):
                ok = False
                details.append(f"{ratio}@{load}: occupancy {occ:.2f} outside [{low:.2f},{high:.2f}]")
    _report(5, ok, "both ratios, 7 load points: "
            + ("all shape claims hold" if ok else "; ".join(details)))


def test_criterion_6_partition_staircase(tmp_path):
    grid = [round(0.05 * k, 2) for k in range(1, 21)]
    spec = parse_config(
        "[traffic]\nrates = 0.3, 0.4, 0.2, 0.1\n"
        "[sweep]\nlambda_1 = " + ", ".join(str(g) for g in grid) + "\n"
    )
    run_experiment(spec, "analyze", tmp_path)
    import csv

    with open(tmp_path / "partition_trace.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    ok = True
    for row, lam1 in zip(rows, grid):
        emitted = tuple(int(v) for v in row[1:])
        y_expected, _ = exact_partition(100, 10, [str(lam1), "0.4", "0.2", "0.1"])
        if emitted != tuple(y_expected) or emitted[0] != 10:
            ok = False
    _report(6, ok, f"{len(grid)} staircase points match exact rational evaluation")


def test_criterion_7_estimator_unbiasedness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    ok = True
    details = []
    for lam in (0.1, 0.5, 1.0):
        gaps = rng.exponential(1 / lam, size=(10_000, 100))
        estimates = np.empty(10_000)
        # spot-check a slice through the real window machinery, bulk via the
        # same formula the window applies
        for w_idx in range(100):
            window = ArrivalWindow(1, capacity=100)
            t = 0.0
            window.record_arrival(t)
            for g in gaps[w_idx]:
                t += g
                window.record_arrival(t)
            estimates[w_idx] = window.estimate_rate()
        estimates[100:] = 100.0 / gaps[100:].sum(axis=1)
        err = abs(estimates.mean() - lam) / lam
        details.append(f"lambda={lam}: rel err {err:.3%}")
        ok &= err < 0.02
    elapsed = time.perf_counter() - t0
    _report(7, ok and elapsed < 30.0, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_8_vlc_golden_values():
    checks = {
        "tau(60)=1": lambertian_order(60.0) == pytest.approx(1.0, abs=1e-12),
        "g(30;60,1.5)=3": concentrator_gain(30.0, 60.0, 1.5) == pytest.approx(3.0),
        "H worked link": los_channel_gain(
            OpticalLinkParams(60.0, 1e-4, 2.0, 0.0, 0.0, 60.0, 1.0, 1.5)
        ) == pytest.approx(2.387e-5, rel=1e-3),
        "127 masks": len(enumerate_masks()) == 127,
        "decode 0100110": decode_band_mask("0100110") == {2, 5, 6},
        "bands tile 400nm": sum(band_widths()) == 400,
    }
    ok = all(checks.values())
    _report(8, ok, ", ".join(f"{k}:{'ok' if v else 'BAD'}" for k, v in checks.items()))


def test_criterion_9_determinism(tmp_path):
    spec = parse_config(
        "[traffic]\nrates = 0.2, 0.2, 0.2, 0.2\n"
        "[simulation]\narrivals = 30000\nseed = 5\nevents = true\n"
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_experiment(spec, "simulate", out1)
    run_experiment(spec, "simulate", out2)
    names = ["blocking.csv", "utilization.csv", "partition_trace.csv",
             "events.csv", "manifest.txt"]
    ok = all((out1 / n).read_bytes() == (out2 / n).read_bytes() for n in names)
    _report(9, ok, f"{len(names)} output files byte-identical across reruns")
