"""Dynamic guard-channel partition.

Out of N channels, Gamma are reserved dynamically: class m receives a share
of the guard pool proportional to its arrival rate, and may access the
floor of the suffix sum of shares from its own class down to the lowest
priority. Class 1 can always reach all N channels. A class-m call is
admitted iff the occupancy is below its limit N_m.

The floor rule y_m = floor(X_m + ... + X_M) is one function,
``guard_floors``, on a grid with one row per rate vector: per arrival in the
simulator's dynamic policy, per grid point in the analyzer and for one
vector in ``compute_partition``. An all-zero row gets the equal split.

Every parameter type of the package declares each check on its field with
``checked``; ``field_errors`` runs them, and a failure is a ``FieldError``
that names the field, so the config can report it under its key.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import MISSING, dataclass, field, fields
from functools import reduce
from numbers import Integral
from operator import add

import numpy as np

# Snap applied before floor(): suffix sums that are integers in exact
# arithmetic may land a few ulps low in floats (e.g. 0.7/1.0*10).
_FLOOR_SNAP = 1e-9


class FieldError(ValueError):
    """A field's value fails its check: ``name`` the field, ``rule`` what
    the check asks for and ``value`` the value; reads ``name: rule, got value``."""

    def __init__(self, name: str, rule: str, value):
        super().__init__(f"{name}: {rule}, got {value!r}")
        self.name, self.rule, self.value = name, rule, value


def checked(default=MISSING, *, check=None, rule="", **metadata):
    """A dataclass field with its default, the ``check`` its value must pass
    and the ``rule`` that says what the check asks for; ``metadata`` is kept
    with them."""
    return field(default=default, metadata={"check": check, "rule": rule, **metadata})


def integer_at_least(k: int) -> dict:
    """The check and rule of an integer field (numpy's included, ``bool``
    not) >= ``k``."""
    return dict(check=lambda v: isinstance(v, Integral) and not isinstance(v, bool) and v >= k,
                rule=f"must be an integer >= {k}")


def finite_non_negative(values) -> bool:
    """Every entry finite and >= 0, and a finite sum."""
    return all(math.isfinite(v) and v >= 0 for v in values) and math.isfinite(sum(values))


# bytes, and a memoryview of them, iterate as ints, so b"12" would read as
# the rates (49.0, 50.0)
RATE_VECTOR = dict(check=lambda v: not isinstance(v, (bytes, bytearray, memoryview))
                   and len(v) > 0 and finite_non_negative(v),
                   rule="must be one or more entries, finite and >= 0 with a finite sum")


def _passes(check, value) -> bool:
    """Whether ``value`` passes ``check``; a value of a type the check
    cannot compare, such as a string in a float field, fails it."""
    try:
        return bool(check(value))
    except (TypeError, ValueError):
        return False


def require(name: str, value, *, check, rule: str) -> None:
    """Raise the ``FieldError`` of ``name`` unless ``value`` passes ``check``."""
    if not _passes(check, value):
        raise FieldError(name, rule, value)


def field_errors(obj) -> list[FieldError]:
    """A ``FieldError`` for each field of dataclass ``obj`` that fails its
    check, in field order. A field whose default is None may be None."""
    errors = []
    for f in fields(obj):
        check, value = f.metadata.get("check"), getattr(obj, f.name)
        absent = value is None and f.default is None
        if check is not None and not absent and not _passes(check, value):
            errors.append(FieldError(f.name, f.metadata["rule"], value))
    return errors


@dataclass(frozen=True)
class SystemConfig:
    n_channels: int = checked(**integer_at_least(1))     # N
    guard: int = checked(**integer_at_least(0))          # Gamma
    # per-call service rate, 1/holding-time
    mu: float = checked(check=lambda v: math.isfinite(v) and v > 0,
                        rule="must be finite and > 0")
    window_n: int = checked(**integer_at_least(1))       # estimator window size in gaps

    def __post_init__(self):
        if errors := field_errors(self):
            raise errors[0]
        if self.guard > self.n_channels:
            raise FieldError("guard", "must satisfy 0 <= guard <= channels", self.guard)
        if self.guard > self.n_channels / 2:
            warnings.warn(
                f"guard pool {self.guard} exceeds half the channel pool "
                f"({self.n_channels}); utilization may suffer",
                stacklevel=2,
            )


# the check and rule of a value that must be a SystemConfig
SYSTEM_CONFIG = dict(check=lambda v: isinstance(v, SystemConfig), rule="must be a SystemConfig")


def _rate_grid(rates) -> bool:
    """A 2-D grid whose entries are finite and >= 0, with finite row sums
    added as ``guard_floors`` adds them."""
    grid = np.asarray(rates, dtype=float)
    if grid.ndim != 2 or not (np.isfinite(grid) & (grid >= 0)).all():
        return False
    with np.errstate(over="ignore"):
        return bool(np.isfinite(reduce(add, grid.T)).all())


# the check and rule of a P x M rate grid, one rate vector per row
RATE_GRID = dict(check=_rate_grid, rule="must be a 2-D grid, finite and >= 0 with finite row sums")


@dataclass(frozen=True)
class ChannelPartition:
    guard_access: tuple[int, ...]   # y_m, guard channels reachable by class m
    limits: tuple[int, ...]         # N_m, total channels reachable by class m


def guard_floors(config: SystemConfig, rates) -> np.ndarray:
    """Guard access y_m of every row of a P x M rate grid, as a P x M int
    array; an all-zero row gets the equal split. On the grid's columns r_1,
    ..., r_M it computes total = r_1 + ... + r_M, X_m = r_m / total * Gamma
    and y_m = floor(X_m + ... + X_M + _FLOOR_SNAP), every sum left to
    right: the same float operations in the same order as a loop over one
    row's shares. Every entry must be finite and >= 0 with a finite row
    sum, which it does not check: ``partitions`` checks its grids, and the
    simulator's window estimates are so by construction. Besides y it holds
    three P-long arrays: each share is computed again for every suffix sum
    that takes it."""
    full = rates.any(axis=1)
    if np.count_nonzero(full) < len(full):
        rates = np.where(full[:, None], rates, 1.0)
    columns = rates.T
    total = reduce(add, columns)
    access = np.empty(columns.shape, dtype=int)
    for m, first in enumerate(columns):
        suffix = first / total
        suffix *= config.guard
        for r in columns[m + 1:]:
            share = r / total
            share *= config.guard
            suffix += share
        suffix += _FLOOR_SNAP
        np.floor(suffix, out=access[m], casting="unsafe")
    return access.T


def partitions(config: SystemConfig, rates) -> tuple[np.ndarray, np.ndarray]:
    """Guard access y_m (``guard_floors``) and limit N_m = y_m + N - Gamma
    of every row of a P x M rate grid, as two P x M int arrays. The grid's
    entries must be finite and >= 0, with finite row sums."""
    require("config", config, **SYSTEM_CONFIG)
    require("rates", rates, **RATE_GRID)
    access = guard_floors(config, np.asarray(rates, dtype=float))
    return access, access + (config.n_channels - config.guard)


def compute_partition(config: SystemConfig, rates) -> ChannelPartition:
    """Per-class partition (y_m, N_m) of one rate vector that passes the
    ``RATE_VECTOR`` check: the one-row case of ``partitions``, which
    checks ``config``."""
    require("rates", rates, **RATE_VECTOR)
    rates = tuple(float(r) for r in rates)
    access, limits = partitions(config, np.array([rates]))
    return ChannelPartition(tuple(access[0].tolist()), tuple(limits[0].tolist()))
