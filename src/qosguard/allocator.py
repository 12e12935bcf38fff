"""Dynamic guard-channel partition.

Out of N channels, Gamma are reserved dynamically: class m receives a share
of the guard pool proportional to its arrival rate, and may access the
floor of the suffix sum of shares from its own class down to the lowest
priority. Class 1 can always reach all N channels. A class-m call is
admitted iff the occupancy is below its limit N_m.

The floor rule y_m = floor(X_m + ... + X_M) is generated once per class
count M and guard pool Gamma as straight-line code and cached: the
simulator's dynamic policy evaluates it on numpy columns, one row per
arrival, the CLI's analytic sweep on one row per sweep point, and
``compute_partition`` evaluates the same code on floats. An
all-zero rate vector has no proportional split: ``compute_partition`` gives
it the equal one.

Every parameter type of the package declares each check on its field with
``checked``; ``field_errors`` runs them, and a failure is a ``FieldError``
that names the field, so the config can report it under its key.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import MISSING, dataclass, field, fields
from numbers import Integral

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


def _passes(check, value) -> bool:
    """Whether ``value`` passes ``check``; a value of a type the check
    cannot compare, such as a string in a float field, fails it."""
    try:
        return bool(check(value))
    except (TypeError, ValueError):
        return False


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
    window estimates satisfy this by construction, and the CLI's sweep grid
    is checked by ``parse_config`` and has its all-zero rows replaced.
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
