"""Sliding-window arrival-rate estimation: one window per traffic class
holds the class's most recent inter-arrival gaps, and the rate estimate is
the reciprocal of their mean."""

from __future__ import annotations

from collections import deque


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
            raise ValueError(
                f"class {self.class_index}: no inter-arrival gap observed yet"
            )
        return len(self.gaps) / self._gap_sum

    @property
    def has_estimate(self) -> bool:
        return bool(self.gaps)
