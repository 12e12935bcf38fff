"""Traffic classes and sliding-window arrival-rate estimation."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass


class RateEstimateUnavailable(Exception):
    """The arrival window holds no inter-arrival gap yet (cold start)."""


@dataclass(frozen=True)
class ClassSpec:
    """One traffic class. Index 1 is the highest priority."""

    index: int
    name: str
    rate: float  # arrivals per second

    def __post_init__(self):
        if self.index < 1:
            raise ValueError(f"class index must be >= 1, got {self.index}")
        if not math.isfinite(self.rate) or self.rate < 0:
            raise ValueError(f"class {self.index}: rate must be finite and >= 0, got {self.rate}")


@dataclass(frozen=True)
class TrafficProfile:
    """Ordered set of traffic classes, highest priority first."""

    classes: tuple[ClassSpec, ...]

    def __post_init__(self):
        if len(self.classes) < 1:
            raise ValueError("at least one traffic class is required")
        indices = [c.index for c in self.classes]
        if indices != list(range(1, len(self.classes) + 1)):
            raise ValueError(f"class indices must be contiguous 1..M, got {indices}")

    @classmethod
    def from_rates(cls, rates, names=None) -> "TrafficProfile":
        rates = list(rates)
        if names is None:
            names = [f"class{i}" for i in range(1, len(rates) + 1)]
        specs = tuple(
            ClassSpec(index=i, name=nm, rate=float(r))
            for i, (nm, r) in enumerate(zip(names, rates), start=1)
        )
        return cls(classes=specs)

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def rates(self) -> tuple[float, ...]:
        return tuple(c.rate for c in self.classes)

    @property
    def total_rate(self) -> float:
        # always recomputed: the total is defined as the sum of the class rates
        return sum(c.rate for c in self.classes)


class ArrivalWindow:
    """Sliding window over the most recent inter-arrival gaps of one class.

    Keeps at most ``capacity`` gaps; each new arrival beyond capacity evicts
    the oldest gap. The rate estimate is (number of gaps) / (sum of gaps),
    i.e. the reciprocal of the mean gap.
    """

    _RESYNC_EVERY = 4096  # periodic exact re-sum to cap float drift

    def __init__(self, class_index: int, capacity: int):
        if capacity < 1:
            raise ValueError(f"window capacity must be >= 1, got {capacity}")
        self.class_index = class_index
        self.capacity = capacity
        self.gaps: deque[float] = deque()
        self.last_arrival: float | None = None
        self._gap_sum = 0.0
        self._records = 0

    def record_arrival(self, t: float) -> None:
        """Record an arrival at time ``t``; the first arrival defines no gap."""
        last = self.last_arrival
        if last is not None:
            if t <= last:
                raise ValueError(
                    f"arrival timestamps must be strictly increasing: {t} <= {last}"
                )
            gap = t - last
            self.gaps.append(gap)
            self._gap_sum += gap
            if len(self.gaps) > self.capacity:
                self._gap_sum -= self.gaps.popleft()
        self.last_arrival = t
        self._records += 1
        if self._records % self._RESYNC_EVERY == 0:
            # left to right, as the running sum adds: builtin sum compensates
            # float rounding on Python 3.12 and later
            total = 0.0
            for g in self.gaps:
                total += g
            self._gap_sum = total

    def estimate_rate(self) -> float:
        """Current arrival-rate estimate in calls per second."""
        if not self.gaps:
            raise RateEstimateUnavailable(
                f"class {self.class_index}: no inter-arrival gap observed yet"
            )
        return len(self.gaps) / self._gap_sum

    @property
    def has_estimate(self) -> bool:
        return bool(self.gaps)
