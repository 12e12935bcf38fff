"""Independent oracles used across the test suite.

These deliberately avoid the code paths they check: the chain oracle is a
dense linear solve of the balance equations, the closed-form oracle
evaluates the printed product forms term by term, and the partition oracle
uses exact rational arithmetic. The guard-floor reference keeps the
per-class arithmetic that the allocator's vector helper replaced. The
event-log writer formats every row through ``csv.writer``, field by field.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction

import numpy as np

from qosguard.allocator import _FLOOR_SNAP, reserved_shares
from qosguard.markov import BlockingReport, blocking_probabilities, steady_state


class TranscriptionDiscrepancy(Exception):
    """Closed-form blocking disagrees with the steady-state solver."""

    def __init__(self, closed_form, solver):
        self.closed_form = tuple(closed_form)
        self.solver = tuple(solver)
        super().__init__(
            f"closed-form blocking {self.closed_form} disagrees with "
            f"steady_state {self.solver}"
        )


def dense_steady_state(n: int, mu: float, birth_rate) -> np.ndarray:
    """Steady state of a birth-death chain on 0..n by dense linear solve.

    ``birth_rate(i)`` is the upward rate out of state i; downward rate is i*mu.
    """
    q = np.zeros((n + 1, n + 1))
    for i in range(n):
        q[i, i + 1] = birth_rate(i)
    for i in range(1, n + 1):
        q[i, i - 1] = i * mu
    np.fill_diagonal(q, -q.sum(axis=1))
    # replace the last balance equation with the normalization constraint
    a = q.T.copy()
    a[-1, :] = 1.0
    b = np.zeros(n + 1)
    b[-1] = 1.0
    return np.linalg.solve(a, b)


def guard_birth_rate(limits, rates):
    """Birth-rate function for the guard-channel chain: classes with N_m > i."""

    def birth(i):
        return sum(lam for lam, n_m in zip(rates, limits) if n_m > i)

    return birth


def exact_partition(n: int, gamma: int, rates) -> tuple[list[int], list[int]]:
    """(y_m, N_m) by exact rational arithmetic; rates given as strings/Fractions."""
    fr = [Fraction(str(r)) for r in rates]
    total = sum(fr)
    y = [math.floor(sum(fr[m:]) / total * gamma) for m in range(len(fr))]
    limits = [n - gamma + ym for ym in y]
    return y, limits


def guard_floors_reference(rates, gamma: int) -> tuple[int, ...]:
    """y_m by the arithmetic of the former per-class ``accessible_guard``:
    the validated shares of ``reserved_shares``, then for each class m on its
    own, floor(X_m + ... + X_M) after the same snap."""
    shares = reserved_shares(rates, gamma)
    return tuple(
        math.floor(sum(shares[m - 1:]) + _FLOOR_SNAP) for m in range(1, len(shares) + 1)
    )


def write_events_reference(path, per_rep_events) -> None:
    """``events.csv`` as the CLI wrote it when it held every event: a
    ``csv.writer`` row per event, floats as ``.9g`` and other fields by
    ``str``. ``per_rep_events`` holds one event list per replication."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replication", "time", "kind", "class", "decision", "occupied_after"])
        for rep, events in enumerate(per_rep_events):
            for event in events:
                writer.writerow(
                    [f"{v:.9g}" if isinstance(v, float) else str(v) for v in (rep, *event)]
                )


def erlang_b_direct(servers: int, offered: float) -> float:
    """Erlang B from the definition, term sums in log domain."""
    logs = [k * math.log(offered) - math.lgamma(k + 1) if offered > 0 else (0.0 if k == 0 else -math.inf)
            for k in range(servers + 1)]
    top = max(logs)
    weights = [math.exp(l - top) for l in logs]
    return weights[-1] / sum(weights)


def _xlogy(x: float, y: float) -> float:
    # 0 * log(0) == 0 by convention; positive exponent on a zero base kills the term
    if x == 0:
        return 0.0
    if y == 0:
        return -math.inf
    return x * math.log(y)


def _closed_form_log_weights(config, partition, rates):
    """Log unnormalized P_i per the printed closed forms, in log domain.

    For i <= N_M the weight is (total/mu)^i / i!. For N_j < i <= N_{j-1} it is
    total^{N_M} * prefix_{j-1}^{i-N_j} * prod_{k=j}^{M-1} prefix_k^{N_k-N_{k+1}}
    over mu^i * i!, where prefix_k is the rate sum of classes 1..k.
    """
    rates = tuple(float(r) for r in rates)
    limits = partition.limits
    n = config.n_channels
    mu = config.mu
    m_count = len(rates)
    total = sum(rates)
    prefix = [sum(rates[:k]) for k in range(m_count + 1)]  # prefix[k] = rates of 1..k
    log_mu = math.log(mu)
    n_last = limits[-1]

    logw = np.full(n + 1, -math.inf)
    logw[0] = 0.0
    for i in range(1, n_last + 1):
        logw[i] = _xlogy(i, total) - i * log_mu - math.lgamma(i + 1)
    for j in range(m_count, 1, -1):
        lo, hi = limits[j - 1], limits[j - 2]  # N_j, N_{j-1}
        tail = sum(
            _xlogy(limits[k - 1] - limits[k], prefix[k]) for k in range(j, m_count)
        )
        for i in range(lo + 1, hi + 1):
            logw[i] = (
                _xlogy(n_last, total)
                + _xlogy(i - lo, prefix[j - 1])
                + tail
                - i * log_mu
                - math.lgamma(i + 1)
            )
    return logw


def closed_form_blocking(config, partition, rates, tol: float = 1e-9) -> BlockingReport:
    """Blocking from the literal closed forms, cross-checked against steady_state.

    Raises TranscriptionDiscrepancy if any B_m differs from the solver's
    result by more than ``tol``.
    """
    rates = tuple(float(r) for r in rates)
    if sum(rates) == 0:
        probs = np.zeros(config.n_channels + 1)
        probs[0] = 1.0
    else:
        logw = _closed_form_log_weights(config, partition, rates)
        logw -= logw.max()
        probs = np.exp(logw)
        probs /= probs.sum()
    n = config.n_channels
    per_class = tuple(float(probs[n_m:].sum()) for n_m in partition.limits)
    utilization = float(np.arange(n + 1) @ probs) / n

    reference = blocking_probabilities(steady_state(config, partition, rates), partition)
    if any(abs(a - b) > tol for a, b in zip(per_class, reference.per_class)):
        raise TranscriptionDiscrepancy(per_class, reference.per_class)
    return BlockingReport(
        per_class=per_class,
        utilization=utilization,
        offered_load=sum(rates) / config.mu,
    )
