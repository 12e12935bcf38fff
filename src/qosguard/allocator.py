"""Dynamic guard-channel partition.

Out of N channels, Gamma are reserved dynamically: class m receives a share
of the guard pool proportional to its arrival rate, and may access the
floor of the suffix sum of shares from its own class down to the lowest
priority. Class 1 can always reach all N channels. A class-m call is
admitted iff the occupancy is below its limit N_m.

The floor rule y_m = floor(X_m + ... + X_M) is one function,
``partitions``, on a grid with one row per rate vector: per arrival in the
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


RATE_VECTOR = dict(check=lambda v: len(v) > 0 and finite_non_negative(v),
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


@dataclass(frozen=True)
class ChannelPartition:
    guard_access: tuple[int, ...]   # y_m, guard channels reachable by class m
    limits: tuple[int, ...]         # N_m, total channels reachable by class m


def partitions(config: SystemConfig, rates) -> tuple[np.ndarray, np.ndarray]:
    """Guard access y_m and limit N_m = y_m + N - Gamma of every row of a
    P x M rate grid, as two P x M int arrays; an all-zero row gets the equal
    split. On the grid's columns r_1, ..., r_M it computes total = r_1 + ...
    + r_M, X_m = r_m / total * Gamma and y_m = floor(X_m + ... + X_M +
    _FLOOR_SNAP), every sum left to right: the same float operations in the
    same order as a loop over one row's shares. Every entry must be finite
    and >= 0 with a finite row sum: ``parse_config`` checks the CLI's grids,
    and the simulator's window estimates are by construction."""
    rates = np.where(rates.any(axis=1, keepdims=True), rates, 1.0).T
    total = reduce(add, rates)
    shares = [r / total * config.guard for r in rates]
    access = np.array([np.floor(reduce(add, shares[m:]) + _FLOOR_SNAP)
                       for m in range(len(shares))], dtype=int).T
    return access, access + (config.n_channels - config.guard)


def compute_partition(config: SystemConfig, rates) -> ChannelPartition:
    """Per-class partition (y_m, N_m) of one rate vector that passes the
    ``RATE_VECTOR`` check: the one-row case of ``partitions``."""
    rates = tuple(float(r) for r in rates)
    require("rates", rates, **RATE_VECTOR)
    access, limits = partitions(config, np.array([rates]))
    return ChannelPartition(tuple(access[0].tolist()), tuple(limits[0].tolist()))
