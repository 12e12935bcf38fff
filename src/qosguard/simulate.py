"""Event-driven simulator of the closed admission loop.

Per-class Poisson arrivals feed sliding-window rate estimators. Each class
draws its arrival times in chunks from its own generator, and the classes
are merged in time order ahead of the loop; a heap holds only the pending
departures. At equal times a departure frees its channel before an arrival
is tested, and arrivals go by class index. Under the dynamic policy an
arrival refreshes only its own class's estimate, re-derives the guard floors
y_m from the estimate vector with the allocator's cached floor rule, and
rebuilds the class limits only when some y_m changed. A call is admitted iff
the occupancy is below its class limit. Departures are exponential. Runs are
deterministic for a fixed scenario, and both policies can be replayed on the
identical random draws for paired comparison.

With ``record_events`` set, the loop hands its per-call event log out in
batches of at least ``_EVENT_BATCH`` events, to a caller's ``on_events`` sink
as the run goes or, without one, into ``SimMetrics.events``. A sink keeps the
memory a run holds independent of its length.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .allocator import SystemConfig, compute_partition, floor_rule
from .traffic import ArrivalWindow

POLICY_DYNAMIC = "dynamic"
POLICY_SHARING = "sharing"

# draws per generator call; it does not change the values drawn, and small
# chunks keep few arrivals drawn and merged ahead of the loop
_RNG_CHUNK = 128
# events per batch handed to an on_events sink (a batch closes after the
# arrival that fills it, so it may also hold a few departures beyond this)
_EVENT_BATCH = 4096


@dataclass(frozen=True)
class SimScenario:
    config: SystemConfig
    rates: tuple[float, ...]         # per-class arrival rates, class 1 first
    arrivals: int = 1_000_000        # total arrivals simulated (all classes)
    seed: int = 0
    policy: str = POLICY_DYNAMIC
    warmup: float = 0.1              # fraction of arrivals excluded from metrics
    bypass_estimator: bool = False   # use true rates instead of window estimates
    trace_stride: int = 1000         # record traces every this many arrivals
    record_events: bool = False

    def __post_init__(self):
        rates = tuple(float(r) for r in self.rates)
        object.__setattr__(self, "rates", rates)
        if not rates:
            raise ValueError("at least one traffic class is required")
        if not all(math.isfinite(r) and r >= 0 for r in rates) or not math.isfinite(sum(rates)):
            raise ValueError(f"rates must be finite and >= 0 with a finite sum, got {rates}")
        if self.arrivals < 1:
            raise ValueError(f"arrivals must be >= 1, got {self.arrivals}")
        if not 0 <= self.warmup < 1:
            raise ValueError(f"warmup must be in [0, 1), got {self.warmup}")
        if self.policy not in (POLICY_DYNAMIC, POLICY_SHARING):
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.trace_stride < 1:
            raise ValueError(f"trace_stride must be >= 1, got {self.trace_stride}")


@dataclass
class SimMetrics:
    per_class_arrivals: tuple[int, ...]
    per_class_blocks: tuple[int, ...]
    per_class_admissions: tuple[int, ...]
    empirical_blocking: tuple[float, ...]
    utilization: float
    duration: float                                  # measured interval, seconds
    partition_trace: list = field(default_factory=list)   # (time, y_1..y_M)
    estimator_trace: list = field(default_factory=list)   # (time, est_1..est_M)
    events: list | None = None                       # (time, kind, class, decision, occupied)


class _ExpStream:
    """Buffered exponential draws from one dedicated generator, handed out as
    Python floats: scalar numpy arithmetic on every event time costs more than
    the draws themselves. The chunk size does not change the values drawn."""

    def __init__(self, seed_seq: np.random.SeedSequence, mean: float):
        self.rng = np.random.default_rng(seed_seq)
        self.mean = mean
        self._buf: list[float] = []
        self._pos = 0

    def next(self) -> float:
        if self._pos >= len(self._buf):
            self._buf = self.rng.exponential(self.mean, size=_RNG_CHUNK).tolist()
            self._pos = 0
        v = self._buf[self._pos]
        self._pos += 1
        return v


def _merged_arrivals(seeds, rates):
    """Yield every arrival of the run as (time, class index), in time order,
    ties by class index.

    Each class with a positive rate draws its gaps from its own generator in
    chunks of ``_RNG_CHUNK``. A chunk's times are ``np.cumsum`` of its gaps
    with the class's last arrival time added to the first, the same sums as
    adding one gap at a time. Every class's arrivals up to the earliest last
    drawn time among the classes are then complete: those are merged by one
    sort and handed out, and each class keeps its remainder.
    """
    classes = [
        (m + 1, np.random.default_rng(seeds[m]), 1.0 / rate)
        for m, rate in enumerate(rates) if rate > 0
    ]
    pending: list[list[float]] = [[] for _ in classes]
    last = [0.0] * len(classes)
    while classes:
        for i, (_, rng, mean) in enumerate(classes):
            if not pending[i]:
                gaps = rng.exponential(mean, size=_RNG_CHUNK)
                gaps[0] += last[i]
                pending[i] = gaps.cumsum().tolist()
                last[i] = pending[i][-1]
        horizon = min(last)
        batch: list = []
        for i, (cls, _, _) in enumerate(classes):
            times = pending[i]
            k = bisect_right(times, horizon)
            batch += zip(times[:k], repeat(cls))
            pending[i] = times[k:]
        batch.sort()
        yield from batch


def run_simulation(
    scenario: SimScenario, on_events: Callable[[list], None] | None = None
) -> SimMetrics:
    """Simulate the closed admission loop for ``scenario``.

    Arrivals come per class in chunks, merged in time order
    (``_merged_arrivals``); a heap holds only the pending departures. Before
    an arrival at time t, every departure at a time <= t is processed, so a
    departure frees its channel before an arrival at the same time is
    tested, and arrivals at the same time go by class index.

    Under the dynamic policy the guard partition follows the window
    estimates. Until the estimator is ready, the configured rates stand in.
    It is ready once every class with a positive configured rate has an
    inter-arrival gap in its window; a class configured at rate 0 never
    arrives, so it counts as ready from the start with estimate 0.0.

    When ``scenario.record_events`` is set, events (time, kind, class,
    decision, occupied) are collected in batches. A batch is passed to
    ``on_events`` once it holds ``_EVENT_BATCH`` events, checked after each
    arrival, and the last partial batch is passed when the run ends; the
    batches concatenate to the run's whole event log in order. With a sink,
    ``SimMetrics.events`` is None and the loop keeps no batch it has passed
    on. Without one, the batches collect into ``SimMetrics.events``.
    """
    config = scenario.config
    true_rates = scenario.rates
    m_count = len(true_rates)
    n = config.n_channels
    guard = config.guard
    mean_hold = 1.0 / config.mu
    # only a dynamic run that is not bypassed reads the window estimates
    estimating = scenario.policy == POLICY_DYNAMIC and not scenario.bypass_estimator

    seeds = np.random.SeedSequence(scenario.seed).spawn(2 * m_count)
    arrivals = _merged_arrivals(seeds[:m_count], true_rates)
    holding_streams = [_ExpStream(seeds[m_count + m], mean_hold) for m in range(m_count)]
    windows = [ArrivalWindow(m + 1, config.window_n) for m in range(m_count)]
    floors = floor_rule(m_count, guard)

    # the configured rates stand in until the estimator is ready
    if scenario.policy == POLICY_DYNAMIC:
        base_partition = compute_partition(config, true_rates)
        limits, access = base_partition.limits, base_partition.guard_access
    else:
        limits, access = (n,) * m_count, (guard,) * m_count
    estimates = list(true_rates)
    # classes with a positive configured rate whose window holds no gap yet;
    # a window never loses its gaps, so the set only shrinks
    cold = {m for m in range(m_count) if true_rates[m] > 0}

    # pending departures: (time, class_index, seq)
    departures: list = []
    push, pop = heapq.heappush, heapq.heappop
    seq = 0

    total_target = scenario.arrivals
    warmup_count = int(scenario.warmup * total_target)
    trace_stride = scenario.trace_stride
    arrivals_seen = 0
    occupied = 0
    arr_counts = [0] * m_count
    block_counts = [0] * m_count
    admit_counts = [0] * m_count
    in_measurement = warmup_count == 0
    measure_start = 0.0
    area = 0.0          # integral of occupancy over the measured interval
    last_t = 0.0
    partition_trace: list = []
    estimator_trace: list = []
    events: list | None = [] if scenario.record_events else None
    held: list | None = None
    if events is not None and on_events is None:
        held = []
        on_events = held.extend

    for t, cls in arrivals:
        while departures and departures[0][0] <= t:
            dt, dcls, _ = pop(departures)
            if in_measurement:
                area += occupied * (dt - last_t)
            last_t = dt
            occupied -= 1
            if events is not None:
                events.append((dt, "departure", dcls, "release", occupied))
        if in_measurement:
            area += occupied * (t - last_t)
        last_t = t

        m = cls - 1
        arrivals_seen += 1
        # holding time is drawn whether or not the call is admitted, so paired
        # policy runs see identical sample paths
        hold = holding_streams[m].next()

        if estimating:
            # an estimate depends only on its own window, so only the
            # arriving class's estimate can change
            window = windows[m]
            window.record_arrival(t)
            if not cold:
                estimates[m] = window.estimate_rate()
            elif window.has_estimate:
                cold.discard(m)
                if not cold:
                    estimates = [
                        w.estimate_rate() if w.has_estimate else 0.0 for w in windows
                    ]
            if not cold:
                y = floors(*estimates)
                if y != access:
                    access = y
                    limits = tuple(n - guard + v for v in y)

        accepted = occupied < limits[m]
        if accepted:
            occupied += 1
            push(departures, (t + hold, cls, seq))
            seq += 1

        if arrivals_seen > warmup_count:
            if not in_measurement:
                in_measurement = True
                measure_start = t
            arr_counts[m] += 1
            if accepted:
                admit_counts[m] += 1
            else:
                block_counts[m] += 1

        if arrivals_seen % trace_stride == 0:
            partition_trace.append((t, *access))
            if estimating:
                estimator_trace.append((t, *estimates))
        if events is not None:
            events.append((t, "arrival", cls, "accept" if accepted else "block", occupied))
            if len(events) >= _EVENT_BATCH:
                on_events(events)
                events = []
        if arrivals_seen == total_target:
            break

    if events:
        on_events(events)
    duration = max(last_t - measure_start, 0.0)
    blocking = tuple(
        block_counts[m] / arr_counts[m] if arr_counts[m] else 0.0 for m in range(m_count)
    )
    utilization = area / (duration * n) if duration > 0 else 0.0
    return SimMetrics(
        per_class_arrivals=tuple(arr_counts),
        per_class_blocks=tuple(block_counts),
        per_class_admissions=tuple(admit_counts),
        empirical_blocking=blocking,
        utilization=utilization,
        duration=duration,
        partition_trace=partition_trace,
        estimator_trace=estimator_trace,
        events=held,
    )


def compare_policies(scenario: SimScenario) -> tuple[SimMetrics, SimMetrics]:
    """Run dynamic reservation and complete sharing on identical random draws."""
    from dataclasses import replace

    dyn = run_simulation(replace(scenario, policy=POLICY_DYNAMIC))
    share = run_simulation(replace(scenario, policy=POLICY_SHARING))
    return dyn, share
