"""Birth-death analysis of the guard-channel loss system.

Occupancy 0..N is a birth-death chain: the birth rate at state i is the sum
of the rates of classes that still fit (N_m > i), the death rate is i*mu.
The product form is evaluated as a cumulative sum in the log domain. Below
the lowest limit lo every class fits, so birth(i) there is the total rate:
only states lo..N (at most Gamma+1) are binned, suffix-summed and logged, the
rest take that one log. Full-width sums only add +0.0 below lo, so every
float is the one a full-width solve gives.

The solver takes a whole grid of points at once: row p of ``limits`` and
``rates`` is one point's (N_1..N_M) and (rate_1..rate_M). Every step is the
per-point arithmetic run row by row, and a lower limit in another row only
makes more of a row's columns explicit, so a point's result does not depend
on the other rows; ``blocking_probabilities`` solves the grid in blocks of
``_BLOCK_ROWS`` rows to bound the memory a sweep holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocator import RATE_GRID, SYSTEM_CONFIG, SystemConfig, integer_at_least, require

# points solved together. At N=1000, Gamma=100 a block's logw is 125 KiB, its
# other temporaries at most Gamma+1 wide (12 KiB); the 1000-point sweep peaks
# at 0.26 MiB under tracemalloc (the full-width solver at 8 rows: 0.36 MiB)
_BLOCK_ROWS = 16


@dataclass(frozen=True, eq=False)
class BlockingReport:
    per_class: np.ndarray       # P x M, B_m of every point
    utilization: np.ndarray     # P, E[occupied] / N
    offered_load: np.ndarray    # P, total rate / mu, in Erlangs


def _as_grid(config: SystemConfig, limits, rates) -> tuple[np.ndarray, ...]:
    """The checked grid, and log((k+1)*mu) for k = 0..N-1."""
    require("config", config, **SYSTEM_CONFIG)
    # a bool in a list becomes an int in the array; an int array holds none
    if not isinstance(limits, np.ndarray) and any(
            isinstance(v, (bool, np.bool_)) for v in np.asarray(limits, dtype=object).flat):
        raise ValueError(f"limits must be integers, got a bool in {limits!r}")
    limits, rates = np.asarray(limits), np.asarray(rates, dtype=float)
    if limits.dtype.kind not in "iu":
        raise ValueError(f"limits must be integers, got dtype {limits.dtype}")
    if limits.ndim != 2 or limits.shape != rates.shape:
        raise ValueError(f"limits and rates must be P x M arrays of one shape, "
                         f"got {limits.shape} and {rates.shape}")
    n = config.n_channels
    if limits.min(initial=0) < 0 or limits.max(initial=0) > n:
        raise ValueError(f"limits must lie in 0..{n}")
    require("rates", rates, **RATE_GRID)
    return limits.astype(np.intp, copy=False), rates, np.log(np.arange(1, n + 1) * config.mu)


def _solve(limits: np.ndarray, rates: np.ndarray, log_deaths: np.ndarray) -> np.ndarray:
    points, n = len(limits), len(log_deaths)
    # columns lo-1..N of each row: lo >= 1, as column 0 is never a birth (a
    # limit of 0 lands there), and lo <= N-1 keeps the log's operand 2+ long
    lo = max(1, min(int(limits.min(initial=n)), n - 1))
    width = n + 2 - lo
    cells = (limits - (lo - 1) + width * np.arange(points)[:, None]).ravel()
    at_limit = np.bincount(cells, weights=rates.ravel(), minlength=points * width)
    # suffix sums added from the top down; column j is birth(N - 1 - j)
    suffix = np.cumsum(at_limit.reshape(points, width)[:, :0:-1], axis=1)
    # log row by row of the reversed view, as a one-point solve takes it: on
    # a contiguous or 2-D operand numpy's log may take its vector path, which
    # can round a last bit differently (seen with numpy 2.4 on AVX-512)
    logw = np.zeros((points, n + 1))
    steps = logw[:, 1:]     # summed in place, so a block holds one N+1 array
    with np.errstate(divide="ignore"):
        for birth, out in zip(suffix, steps):
            np.log(birth[::-1], out=out[lo - 1:])
    # a copied source: an overlapping one makes numpy buffer the assignment
    steps[:, :lo - 1] = steps[:, lo - 1:lo].copy()
    for row in steps:       # on the strided 2-D view numpy would copy it whole
        row -= log_deaths
    np.cumsum(steps, axis=1, out=steps)
    logw -= logw.max(axis=1, keepdims=True)
    probs = np.exp(logw, out=logw)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


def steady_state(config: SystemConfig, limits, rates) -> np.ndarray:
    """Steady-state occupancy distribution P_0..P_N of every point, as a
    P x (N+1) array.

    log P_i = sum over k < i of log birth(k) - log((k+1)*mu), up to a
    constant. Each row is shifted by its maximum before exp, so no N or load
    overflows, and a zero birth rate gives exact zeros above it. States below
    the grid's lowest limit take the log of the total rate, the float each
    row's own full-width sums give there: that limit sets only how much is
    computed, never a row's result.
    """
    return _solve(*_as_grid(config, limits, rates))


def total_rate(rates) -> np.ndarray:
    """Total arrival rate of every point of a P x M rate grid, added class
    by class from class 1: a plain left-to-right sum of each row."""
    rates = np.asarray(rates, dtype=float)
    if rates.ndim != 2:
        raise ValueError(f"rates must be a P x M grid, got shape {rates.shape}")
    total = np.zeros(len(rates))
    for column in rates.T:
        total += column
    return total


def blocking_probabilities(config: SystemConfig, limits, rates) -> BlockingReport:
    """Per-class blocking B_m = sum of P_i over i >= N_m, utilization and
    offered load of every point of the grid.

    The grid is solved ``_BLOCK_ROWS`` rows at a time, each block from its
    own lowest limit up; each tail is one row's sum from N_m to N.
    """
    limits, rates, log_deaths = _as_grid(config, limits, rates)
    n = config.n_channels
    occupancy = np.arange(n + 1, dtype=float)
    per_class = np.empty(limits.shape)
    utilization = np.empty(len(limits))
    for start in range(0, len(limits), _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        probs = _solve(limits[block], rates[block], log_deaths)
        # one row-wise reduction per distinct limit serves every class at it
        for n_m in set(limits[block].ravel().tolist()):
            tails = probs[:, n_m:].sum(axis=1)[:, None]
            np.copyto(per_class[block], tails, where=limits[block] == n_m)
        # one dot product per row: a matrix-vector product adds in another order
        utilization[block] = [occupancy @ p for p in probs]
        del probs   # else held through the next block's solve
    utilization /= n
    return BlockingReport(
        per_class=per_class,
        utilization=utilization,
        offered_load=total_rate(rates) / config.mu,
    )


def erlang_b(servers: int, offered):
    """Erlang-B blocking via the standard recurrence, for one offered load
    (returns a float) or an array of them (returns an array)."""
    require("servers", servers, **integer_at_least(0))
    loads = np.asarray(offered, dtype=float)
    if not (np.isfinite(loads) & (loads >= 0)).all():
        raise ValueError(f"offered load must be finite and >= 0, got {offered}")
    b = np.ones(loads.shape)
    ab = np.empty(loads.shape)
    denominator = np.empty(loads.shape)
    for k in range(1, servers + 1):
        np.multiply(loads, b, out=ab)
        np.add(ab, k, out=denominator)
        np.divide(ab, denominator, out=b)
    return float(b) if b.ndim == 0 else b
