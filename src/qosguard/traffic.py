"""Sliding-window arrival-rate estimation: one window per traffic class
holds the class's most recent inter-arrival gaps, and the rate estimate is
the reciprocal of their mean."""

from __future__ import annotations

import math

import numpy as np

from .allocator import integer_at_least, require


class ArrivalWindow:
    """Sliding window over the most recent inter-arrival gaps of one class.

    Keeps at most ``capacity`` gaps; each new arrival beyond capacity evicts
    the oldest gap. The rate estimate is (number of gaps) / (sum of gaps),
    i.e. the reciprocal of the mean gap.

    The sum is a running sum: each arrival adds its gap and then subtracts
    the gap it evicts, and every ``_RESYNC_EVERY`` arrivals the window is
    re-summed left to right to cap float drift. ``record_arrivals`` takes a
    chunk of arrivals at once and runs those adds and subtracts as one
    ``cumsum``, which adds left to right, so its estimates are the floats
    that recording the arrivals one at a time gives.
    """

    _RESYNC_EVERY = 4096  # periodic exact re-sum to cap float drift

    def __init__(self, class_index: int, capacity: int):
        require("capacity", capacity, **integer_at_least(1))
        self.class_index = class_index
        self.capacity = capacity
        self.gaps = np.empty(0)            # the window's gaps, oldest first
        self.last_arrival: float | None = None
        self._gap_sum = 0.0
        self._records = 0

    def record_arrivals(self, times) -> np.ndarray:
        """Record arrivals at ``times``, strictly increasing and after the
        last recorded arrival, and return the rate estimate after each one:
        nan after the first arrival ever, which defines no gap."""
        times = np.asarray(times, dtype=float)
        count = len(times)
        if not count:
            return np.empty(0)
        last = self.last_arrival
        prev = times[:-1] if last is None else np.concatenate(([last], times[:-1]))
        new = times[count - len(prev):] - prev
        if len(new) and not new.min() > 0.0:
            bad = int(np.argmin(new > 0.0)) + (last is None)
            prev = times[bad - 1] if bad else last
            raise ValueError(
                f"arrival timestamps must be strictly increasing: {times[bad]} <= {prev}"
            )
        estimates = np.empty(count)
        skip = count - len(new)            # the first arrival ever has no gap
        estimates[:skip] = math.nan
        resync = self._RESYNC_EVERY
        start = 0
        # chunk index of the next arrival whose record re-sums the window
        sync = resync - 1 - self._records % resync
        while start < count:
            stop = min(sync + 1, count)
            if stop > skip:
                lo = max(start, skip)
                self._add(new[lo - skip:stop - skip], estimates[lo:stop])
            if stop == sync + 1:
                # left to right, as the running sum adds: builtin sum
                # compensates float rounding on Python 3.12 and later
                self._gap_sum = float(self.gaps.cumsum()[-1]) if len(self.gaps) else 0.0
                if stop > skip:
                    estimates[stop - 1] = len(self.gaps) / self._gap_sum
            start = stop
            sync += resync
        self.last_arrival = float(times[-1])
        self._records += count
        return estimates

    def _add(self, new: np.ndarray, out: np.ndarray) -> None:
        """Append the gaps ``new`` and write the estimate after each to
        ``out``. The running sums are one ``cumsum`` over the current sum
        followed by ``+gap, -evicted`` per arrival, the scalar steps in
        their order; an arrival that evicts nothing adds 0.0 there, which
        leaves a positive sum as it is."""
        held = len(self.gaps)
        both = np.concatenate((self.gaps, new))
        evicted = max(0, len(both) - self.capacity)
        plain = len(new) - evicted         # gaps added before the window is full
        steps = np.empty(1 + 2 * len(new))
        steps[0] = self._gap_sum
        steps[1::2] = new
        steps[2:2 + 2 * plain:2] = 0.0
        np.subtract(0.0, both[:evicted], out=steps[2 + 2 * plain::2])
        running = steps.cumsum()
        self.gaps = both[evicted:]
        self._gap_sum = float(running[-1])
        if plain:
            counts = np.arange(held + 1, held + 1 + len(new), dtype=float)
            counts[plain:] = self.capacity
            np.divide(counts, running[2::2], out=out)
        else:
            np.divide(self.capacity, running[2::2], out=out)

    def record_arrival(self, t: float) -> None:
        """Record an arrival at time ``t``; the first arrival defines no gap."""
        self.record_arrivals((t,))

    def estimate_rate(self) -> float:
        """Current arrival-rate estimate in calls per second."""
        if not len(self.gaps):
            raise ValueError(
                f"class {self.class_index}: no inter-arrival gap observed yet"
            )
        return len(self.gaps) / self._gap_sum
