"""Output checks, one function per workload.

Each check reads the CSVs a `qosguard` invocation wrote and compares them
with values computed here, apart from `qosguard`: a log-domain Erlang-B, an
exact rational guard partition, a dense linear solve of the balance
equations and a replay of the event log. Each returns a list of failure
messages; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

import workloads as wl

# The CSVs print floats with 9 significant digits; exact identities are held
# to a relative 1e-8 of the largest term in them.
PRINT_RTOL = 1e-8
# B_m against a dense LU solve of the (N+1)-state balance equations. B_m <= 1
# printed to 9 digits is off by at most 5e-10; the measured gap was 2e-10.
DENSE_ATOL = 1e-9
# Simulated utilization against the carried-load identity with the configured
# rates: over 16 seeds at each workload's size the relative gap had a standard
# deviation of 0.45 % (largest 1.2 %); 3 % is over six of them.
UTIL_RTOL = 0.03
# Pooled blocking under complete sharing against Erlang-B(N, A) = 0.0757:
# over 16 seeds at 135k measured arrivals the gap had a standard deviation of
# 0.0027 (largest 0.0067), wide because blocking at 100 Erlangs comes in
# correlated bursts; 0.015 is over five of them, about 20 % of B.
POOLED_ATOL = 0.015


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def log_erlang_b(servers: int, offered: float) -> float:
    """log B(servers, offered) = log(A^N/N!) - log(sum_k A^k/k!)."""
    k = np.arange(servers + 1)
    log_terms = k * math.log(offered) - np.array([math.lgamma(i + 1) for i in k])
    peak = log_terms.max()
    return float(log_terms[-1] - peak - math.log(np.exp(log_terms - peak).sum()))


def exact_guard_access(ratio, guard: int) -> tuple[int, ...]:
    """y_m = floor(Gamma * (r_m + ... + r_M) / sum(r)) in exact rationals."""
    ratio = [Fraction(r) for r in ratio]
    total = sum(ratio)
    return tuple(
        math.floor(guard * sum(ratio[m:]) / total) for m in range(len(ratio))
    )


def dense_blocking(channels: int, limits, rates, mu: float) -> list[float]:
    """Per-class blocking from pi Q = 0 solved densely, with sum(pi) = 1."""
    size = channels + 1
    q = np.zeros((size, size))
    for i in range(channels):
        q[i, i + 1] = sum(lam for lam, lim in zip(rates, limits) if lim > i)
    for i in range(1, size):
        q[i, i - 1] = i * mu
    q -= np.diag(q.sum(axis=1))
    a = q.T.copy()
    a[-1, :] = 1.0
    b = np.zeros(size)
    b[-1] = 1.0
    pi = np.linalg.solve(a, b)
    return [float(pi[lim:].sum()) for lim in limits]


def check_analyze(out: Path, w: wl.Workload) -> list[str]:
    errors: list[str] = []
    header, rows = read_csv(out / "blocking.csv")
    _, part_rows = read_csv(out / "partition_trace.csv")
    m_count = len(wl.RATIO)
    if len(rows) != len(w.grid) or len(part_rows) != len(w.grid):
        return [f"analyze: {len(rows)} blocking rows, {len(part_rows)} partition rows, "
                f"expected {len(w.grid)}"]
    if header != (["lambda_T"] + [f"B_{m}" for m in range(1, m_count + 1)]
                  + ["utilization", "B_sharing", "util_sharing"]):
        return [f"analyze: unexpected blocking.csv header {header}"]
    access = exact_guard_access(wl.RATIO, w.guard)
    limits = [w.channels - w.guard + y for y in access]
    total_ratio = sum(wl.RATIO)
    dense_at = {0, len(w.grid) // 2, len(w.grid) - 1}
    for k, (lam_t, row, prow) in enumerate(zip(w.grid, rows, part_rows)):
        values = [float(x) for x in row]
        b = values[1:1 + m_count]
        util, b_sharing = values[1 + m_count], values[2 + m_count]
        rates = [lam_t * r / total_ratio for r in wl.RATIO]
        offered = lam_t / wl.MU
        if not math.isclose(values[0], lam_t, rel_tol=PRINT_RTOL):
            errors.append(f"analyze point {k}: lambda_T {values[0]} != {lam_t}")
        expect = math.exp(log_erlang_b(w.channels, offered))
        if not math.isclose(b_sharing, expect, rel_tol=PRINT_RTOL):
            errors.append(f"analyze point {k}: B_sharing {b_sharing} != Erlang-B {expect}")
        carried = sum(lam * (1 - bm) for lam, bm in zip(rates, b)) / wl.MU
        if abs(util * w.channels - carried) > PRINT_RTOL * offered:
            errors.append(
                f"analyze point {k}: utilization*N {util * w.channels} != carried load {carried}"
            )
        if any(b2 < b1 for b1, b2 in zip(b, b[1:])):
            errors.append(f"analyze point {k}: blocking not ordered by class {b}")
        y = tuple(int(v) for v in prow[1:])
        if y != access or not math.isclose(float(prow[0]), lam_t, rel_tol=PRINT_RTOL):
            errors.append(f"analyze point {k}: partition row {prow} != exact {access}")
        if k in dense_at:
            dense = dense_blocking(w.channels, limits, rates, wl.MU)
            if any(abs(x - d) > DENSE_ATOL for x, d in zip(b, dense)):
                errors.append(f"analyze point {k}: B {b} != dense solve {dense}")
    return errors


def _sim_blocking(out: Path, w: wl.Workload, errors: list[str]):
    """Per-class (arrivals, blocks) from blocking.csv, with its sanity checks."""
    _, rows = read_csv(out / "blocking.csv")
    arrivals = [int(r[2]) for r in rows]
    blocks = [int(r[3]) for r in rows]
    measured = w.arrivals - int(wl.WARMUP * w.arrivals)
    if [int(r[1]) for r in rows] != list(range(1, len(w.rates) + 1)):
        errors.append(f"blocking.csv: class column {[r[1] for r in rows]}")
    if sum(arrivals) != measured:
        errors.append(f"per-class arrivals sum to {sum(arrivals)}, expected {measured}")
    for a, bl, r in zip(arrivals, blocks, rows):
        if not 0 <= bl <= a or not math.isclose(float(r[4]), bl / a, rel_tol=PRINT_RTOL):
            errors.append(f"blocking.csv row {r}: inconsistent blocks/arrivals")
    return arrivals, blocks


def _utilization_identity(out: Path, w: wl.Workload, arrivals, blocks, errors):
    _, rows = read_csv(out / "utilization.csv")
    util = float(rows[0][1])
    carried = sum(lam * (1 - bl / a) for lam, a, bl in zip(w.rates, arrivals, blocks))
    expect = carried / (wl.MU * w.channels)
    if abs(util / expect - 1) > UTIL_RTOL:
        errors.append(f"utilization {util} vs carried-load estimate {expect}: "
                      f"gap over {UTIL_RTOL:.0%}")


def check_sim_dynamic(out: Path, w: wl.Workload) -> list[str]:
    errors: list[str] = []
    arrivals, blocks = _sim_blocking(out, w, errors)
    if errors:
        return errors
    _, part_rows = read_csv(out / "partition_trace.csv")
    if len(part_rows) != w.arrivals // wl.TRACE_STRIDE:
        errors.append(f"{len(part_rows)} partition rows, expected "
                      f"{w.arrivals // wl.TRACE_STRIDE}")
    for row in part_rows:
        y = [int(v) for v in row[2:]]
        if y[0] != w.guard or any(b > a for a, b in zip(y, y[1:])) or y[-1] < 0:
            errors.append(f"partition row {row} is not a staircase Gamma = y_1 >= ... >= 0")
    blocking = [bl / a for a, bl in zip(arrivals, blocks)]
    if any(b2 < b1 for b1, b2 in zip(blocking, blocking[1:])):
        errors.append(f"blocking not ordered by class: {blocking}")
    _utilization_identity(out, w, arrivals, blocks, errors)
    return errors


def check_sim_sharing_events(out: Path, w: wl.Workload) -> list[str]:
    errors: list[str] = []
    arrivals, blocks = _sim_blocking(out, w, errors)
    if errors:
        return errors
    warmup = int(wl.WARMUP * w.arrivals)
    n = w.channels
    m_count = len(w.rates)
    seen = 0
    occupied = 0
    replay_arrivals = [0] * m_count
    replay_blocks = [0] * m_count
    with (out / "events.csv").open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for line, (_, _, kind, cls, decision, after) in enumerate(reader, start=2):
            after = int(after)
            step = {"accept": 1, "release": -1, "block": 0}.get(decision)
            if step is None or (decision == "release") != (kind == "departure"):
                errors.append(f"events.csv line {line}: {kind} with decision {decision}")
            elif after - occupied != step:
                errors.append(f"events.csv line {line}: {decision} moved occupancy "
                              f"{occupied} -> {after}")
            elif decision == "block" and occupied != n:
                errors.append(f"events.csv line {line}: block at occupancy {occupied} < {n}")
            if not 0 <= after <= n:
                errors.append(f"events.csv line {line}: occupancy {after} outside 0..{n}")
            if len(errors) > 10:
                return errors
            occupied = after
            if kind == "arrival":
                seen += 1
                if seen > warmup:
                    replay_arrivals[int(cls) - 1] += 1
                    replay_blocks[int(cls) - 1] += decision == "block"
    if seen != w.arrivals:
        errors.append(f"events.csv holds {seen} arrivals, expected {w.arrivals}")
    if replay_arrivals != arrivals or replay_blocks != blocks:
        errors.append(f"replayed arrivals/blocks {replay_arrivals}/{replay_blocks} != "
                      f"blocking.csv {arrivals}/{blocks}")
    pooled = sum(blocks) / sum(arrivals)
    expect = math.exp(log_erlang_b(n, sum(w.rates) / wl.MU))
    if abs(pooled - expect) > POOLED_ATOL:
        errors.append(f"pooled blocking {pooled} vs Erlang-B {expect}: gap over {POOLED_ATOL}")
    _utilization_identity(out, w, arrivals, blocks, errors)
    return errors


CHECKS = {
    "sim-dynamic": check_sim_dynamic,
    "sim-sharing-events": check_sim_sharing_events,
    "analyze-sweep": check_analyze,
}
