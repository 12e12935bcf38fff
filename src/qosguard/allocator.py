"""Dynamic guard-channel partition.

Out of N channels, Gamma are reserved dynamically: class m receives a share
of the guard pool proportional to its arrival rate, and may access the
floor of the suffix sum of shares from its own class down to the lowest
priority. Class 1 can always reach all N channels. A class-m call is
admitted iff the occupancy is below its limit N_m.

The floor rule y_m = floor(X_m + ... + X_M) is generated once per class
count M and guard pool Gamma as straight-line code and cached: the
simulator's dynamic policy evaluates it on numpy columns, one row per
arrival, and ``compute_partition`` evaluates the same code on floats. An
all-zero rate vector has no proportional split: ``compute_partition`` gives
it the equal one.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

# Snap applied before floor(): suffix sums that are integers in exact
# arithmetic may land a few ulps low in floats (e.g. 0.7/1.0*10).
_FLOOR_SNAP = 1e-9


@dataclass(frozen=True)
class SystemConfig:
    n_channels: int          # N
    guard: int               # Gamma
    mu: float                # per-call service rate, 1/holding-time
    window_n: int            # estimator window size in gaps

    def __post_init__(self):
        if self.n_channels < 1:
            raise ValueError(f"n_channels must be >= 1, got {self.n_channels}")
        if not 0 <= self.guard <= self.n_channels:
            raise ValueError(
                f"guard must satisfy 0 <= guard <= n_channels, got {self.guard}"
            )
        if not (math.isfinite(self.mu) and self.mu > 0):
            raise ValueError(f"mu must be finite and > 0, got {self.mu}")
        if self.window_n < 1:
            raise ValueError(f"window_n must be >= 1, got {self.window_n}")
        if self.guard > self.n_channels / 2:
            warnings.warn(
                f"guard pool {self.guard} exceeds half the channel pool "
                f"({self.n_channels}); utilization may suffer",
                stacklevel=2,
            )


@dataclass(frozen=True)
class ChannelPartition:
    guard_access: tuple[int, ...]   # y_m, guard channels reachable by class m
    limits: tuple[int, ...]         # N_m, total channels reachable by class m


@functools.lru_cache(maxsize=64)
def floor_rule(m_count: int, gamma: int, floor=math.floor):
    """The function ``(r_1, ..., r_M) -> (y_1, ..., y_M)`` for ``m_count``
    classes and a guard pool of ``gamma`` channels, unrolled.

    It computes total = r_1 + ... + r_M, X_m = r_m / total * gamma and
    y_m = floor(X_m + ... + X_M + _FLOOR_SNAP), every sum left to right: the
    same float operations in the same order as a loop over the shares.
    With ``floor=np.floor`` the same code runs on numpy columns, one row per
    rate vector, and gives each y_m as a float column of the same values.
    Does no validation: the rates must be finite and non-negative with a
    positive sum. ``compute_partition`` checks them first; the simulator's
    window estimates satisfy this by construction.
    """
    if m_count < 1:
        raise ValueError(f"need at least one class, got {m_count}")
    r = [f"r{i}" for i in range(m_count)]
    x = [f"x{i}" for i in range(m_count)]
    lines = [f"def rule({', '.join(r)}):", f"    total = {' + '.join(r)}"]
    lines += [f"    {x[i]} = {r[i]} / total * gamma" for i in range(m_count)]
    floors = [f"floor({' + '.join(x[i:])} + {_FLOOR_SNAP!r})" for i in range(m_count)]
    lines.append(f"    return ({', '.join(floors)},)")
    namespace = {"floor": floor, "gamma": gamma}
    exec("\n".join(lines), namespace)
    return namespace["rule"]


def guard_floors(rates, gamma: int) -> tuple[int, ...]:
    """y_m = floor(X_m + ... + X_M) for every class m, where
    X_m = rate_m / total * gamma, by ``floor_rule``. Does no validation."""
    rates = tuple(rates)
    return floor_rule(len(rates), gamma)(*rates)


def compute_partition(config: SystemConfig, rates) -> ChannelPartition:
    """Per-class partition (y_m, N_m) for the given rate vector. The rates
    must be finite and non-negative with a finite sum; an all-zero vector
    splits the guard pool equally."""
    rates = tuple(float(r) for r in rates)
    for m, r in enumerate(rates, start=1):
        if not math.isfinite(r) or r < 0:
            raise ValueError(f"rate for class {m} must be finite and >= 0, got {r}")
    if not math.isfinite(sum(rates)):
        raise ValueError(f"rates must have a finite sum, got {rates}")
    if not any(rates):
        rates = (1.0,) * len(rates)
    guard_access = floor_rule(len(rates), config.guard)(*rates)
    limits = tuple(config.n_channels - config.guard + y for y in guard_access)
    return ChannelPartition(guard_access=guard_access, limits=limits)
