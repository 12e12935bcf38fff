"""Birth-death analysis of the guard-channel loss system.

Occupancy 0..N is a birth-death chain: the birth rate at state i is the sum
of the rates of classes that still fit (N_m > i), the death rate is i*mu.
The product form is evaluated as a cumulative sum in the log domain.

The solver takes a whole grid of points at once: row p of ``limits`` and
``rates`` is one point's (N_1..N_M) and (rate_1..rate_M). Every step is the
per-point arithmetic run row by row, so a point's result does not depend on
the other rows; ``blocking_probabilities`` solves the grid in blocks of
``_BLOCK_ROWS`` rows to bound the memory a sweep holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocator import SystemConfig

# points solved together: a row of P_0..P_N is 8 KiB at N=1000, so a
# block's temporaries stay near 64 KiB each however long the sweep is
_BLOCK_ROWS = 8


@dataclass(frozen=True, eq=False)
class BlockingReport:
    per_class: np.ndarray       # P x M, B_m of every point
    utilization: np.ndarray     # P, E[occupied] / N
    offered_load: np.ndarray    # P, total rate / mu, in Erlangs


def _as_grid(limits, rates) -> tuple[np.ndarray, np.ndarray]:
    limits = np.asarray(limits, dtype=np.intp)
    rates = np.asarray(rates, dtype=float)
    if limits.ndim != 2 or limits.shape != rates.shape:
        raise ValueError(
            f"limits and rates must be P x M arrays of one shape, got "
            f"{limits.shape} and {rates.shape}"
        )
    return limits, rates


def steady_state(config: SystemConfig, limits, rates) -> np.ndarray:
    """Steady-state occupancy distribution P_0..P_N of every point, as a
    P x (N+1) array.

    log P_i = sum over k < i of log birth(k) - log((k+1)*mu), up to a
    constant. Each row is shifted by its maximum before exp, so no N or load
    overflows, and a zero birth rate gives exact zeros above it.
    """
    limits, rates = _as_grid(limits, rates)
    points = len(limits)
    width = config.n_channels + 1
    # rate_m lands at column N_m of its row; birth(i) is the sum over N_m > i
    cells = (limits + width * np.arange(points)[:, None]).ravel()
    at_limit = np.bincount(cells, weights=rates.ravel(), minlength=points * width)
    at_limit = at_limit.reshape(points, width)
    # suffix sums added from the top down; column i of the view is birth(i)
    suffix = np.cumsum(at_limit[:, :0:-1], axis=1)
    del at_limit
    # log row by row of the reversed view, as a one-point solve takes it: on
    # a contiguous or 2-D operand numpy's log may take its vector path, which
    # can round a last bit differently (seen with numpy 2.4 on AVX-512)
    steps = np.empty(suffix.shape)
    with np.errstate(divide="ignore"):
        for birth, out in zip(suffix, steps):
            np.log(birth[::-1], out=out)
    del suffix
    steps -= np.log(np.arange(1, width) * config.mu)
    logw = np.zeros((points, width))
    np.cumsum(steps, axis=1, out=logw[:, 1:])
    del steps
    logw -= logw.max(axis=1, keepdims=True)
    probs = np.exp(logw, out=logw)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


def total_rate(rates) -> np.ndarray:
    """Total arrival rate of every point of a P x M rate grid, added class
    by class from class 1: a plain left-to-right sum of each row."""
    total = np.zeros(len(rates))
    for column in np.asarray(rates, dtype=float).T:
        total += column
    return total


def blocking_probabilities(config: SystemConfig, limits, rates) -> BlockingReport:
    """Per-class blocking B_m = sum of P_i over i >= N_m, utilization and
    offered load of every point of the grid.

    The grid is solved ``_BLOCK_ROWS`` rows at a time through
    ``steady_state``; each tail is one row's sum from N_m to N.
    """
    limits, rates = _as_grid(limits, rates)
    n = config.n_channels
    occupancy = np.arange(n + 1, dtype=float)
    per_class = np.empty(limits.shape)
    utilization = np.empty(len(limits))
    for start in range(0, len(limits), _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        probs = steady_state(config, limits[block], rates[block])
        tails = per_class[block]
        # rows that share a limit take their tails in one reduction
        for m, column in enumerate(limits[block].T):
            for n_m in set(column.tolist()):
                rows = column == n_m
                tails[rows, m] = probs[rows, n_m:].sum(axis=1)
        # one dot product per row: a matrix-vector product adds in another order
        for row, p in enumerate(probs, start=start):
            utilization[row] = occupancy @ p
    utilization /= n
    return BlockingReport(
        per_class=per_class,
        utilization=utilization,
        offered_load=total_rate(rates) / config.mu,
    )


def erlang_b(servers: int, offered):
    """Erlang-B blocking via the standard recurrence, for one offered load
    (returns a float) or an array of them (returns an array)."""
    if servers < 0:
        raise ValueError(f"servers must be >= 0, got {servers}")
    loads = np.asarray(offered, dtype=float)
    if (loads < 0).any():
        raise ValueError(f"offered load must be >= 0, got {offered}")
    b = np.ones(loads.shape)
    ab = np.empty(loads.shape)
    for k in range(1, servers + 1):
        np.multiply(loads, b, out=ab)
        np.divide(ab, ab + k, out=b)
    return float(b) if b.ndim == 0 else b
