"""Event-driven simulator of the closed admission loop.

Per-class Poisson arrivals feed sliding-window rate estimators. Each class
draws its arrival times and holding times in chunks from its own two
generators, and the classes are merged in time order ahead of the loop; a
heap holds only the pending departures. At equal times a departure frees
its channel before an arrival is tested, and arrivals go by class index.
Under the dynamic policy the guard floors y_m follow the window estimates
through the allocator's floor rule. The estimator sees every arrival,
admitted or blocked, so the estimates, and with them each arrival's class
limit, depend only on the arrival times: they are computed per batch of
arrivals with numpy, ahead of the loop, and the loop only admits, counts
and logs. A call is admitted iff the occupancy is below its class limit.
Departures are exponential. Runs are deterministic for a fixed scenario,
and both policies can be replayed on the identical random draws for paired
comparison.

With ``record_events`` set, the loop hands its per-call event log out in
batches of at least ``_EVENT_BATCH`` events, to a caller's ``on_events`` sink
as the run goes or, without one, into ``SimMetrics.events``. A sink keeps the
memory a run holds independent of its length.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from operator import attrgetter
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .allocator import SystemConfig, compute_partition, floor_rule
from .traffic import ArrivalWindow

POLICY_DYNAMIC = "dynamic"
POLICY_SHARING = "sharing"

# draws per generator call, and arrivals per batch handed to the loop; it
# does not change the values drawn. A batch of at least 128 rows keeps each
# of its arrays at 1 KiB or more, which numpy does not hold in its cache of
# small freed blocks: batches of many different smaller sizes fill that
# cache and raise the memory a run holds.
_RNG_CHUNK = 256
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


class _ClassStream:
    """One class's arrivals, drawn ahead in chunks of ``_RNG_CHUNK`` from
    the class's two generators: arrival times, holding times and, with a
    window, the window's estimate after each arrival.

    A chunk's times are ``np.cumsum`` of its gaps with the last arrival time
    added to the first, the same sums as adding one gap at a time. The
    holding times come in the same chunks as the gaps, the k-th to the
    class's k-th arrival. The chunk size does not change the values drawn.
    """

    def __init__(self, m, rate, arrival_seed, hold_seed, mean_hold, window):
        self.m = m
        self.mean = 1.0 / rate
        self.arrival_rng = np.random.default_rng(arrival_seed)
        self.hold_rng = np.random.default_rng(hold_seed)
        self.mean_hold = mean_hold
        self.window = window
        self.times: list[float] = []     # drawn and not yet handed out
        self.holds = self.estimates = np.empty(0)
        self.last = 0.0                  # the last time drawn
        self.taken = 0                   # arrivals handed out

    def refill(self) -> None:
        """Draw the next chunk behind the arrivals not yet handed out."""
        gaps = self.arrival_rng.exponential(self.mean, size=_RNG_CHUNK)
        gaps[0] += self.last
        times = gaps.cumsum()
        self.times += times.tolist()
        self.last = self.times[-1]
        holds = self.hold_rng.exponential(self.mean_hold, size=_RNG_CHUNK)
        self.holds = np.concatenate((self.holds, holds))
        if self.window is not None:
            self.estimates = np.concatenate(
                (self.estimates, self.window.record_arrivals(times)))

    def take(self, k: int) -> None:
        """Drop the first ``k`` arrivals, handed out."""
        self.times = self.times[k:]
        self.holds = self.holds[k:]
        self.estimates = self.estimates[k:]
        self.taken += k


def _arrival_batches(scenario: SimScenario, partition_trace: list, estimator_trace: list):
    """Yield the run's ``scenario.arrivals`` arrivals in time order, ties by
    class index, as batches of ``_RNG_CHUNK`` (time, class index m, holding
    time, limit of class m) rows, and append the traced rows to the two
    trace lists.

    Each class with a positive rate draws ahead in chunks (``_ClassStream``).
    Every class's arrivals up to the earliest last drawn time among the
    classes are complete: the class with that last time draws on until
    they are a batch or more, and the earliest of them, merged by one
    stable sort, make the batch. Nothing here depends on the admission
    decisions, so a batch's limits are computed before the loop sees it.
    The windows give each class's estimate after each of its arrivals, per
    chunk. The estimate vector at a row holds every class's latest
    estimate: each class's estimates are forward-filled across the batch's
    rows, and the allocator's floor rule runs on those columns. Rows before
    the estimator is ready, and every row of a run that does not estimate,
    get the configured partition.
    """
    config, rates = scenario.config, scenario.rates
    m_count = len(rates)
    estimating = scenario.policy == POLICY_DYNAMIC and not scenario.bypass_estimator
    if scenario.policy == POLICY_DYNAMIC:
        configured = compute_partition(config, rates)
        access, limits = configured.guard_access, configured.limits
    else:
        access, limits = (config.guard,) * m_count, (config.n_channels,) * m_count
    configured_limits = np.array(limits)
    floors = floor_rule(m_count, config.guard, np.floor)
    unreserved = config.n_channels - config.guard

    seeds = np.random.SeedSequence(scenario.seed).spawn(2 * m_count)
    streams = [
        _ClassStream(m, rate, seeds[m], seeds[m_count + m], 1.0 / config.mu,
                     ArrivalWindow(m + 1, config.window_n) if estimating else None)
        for m, rate in enumerate(rates) if rate > 0
    ]
    classes = np.array([s.m for s in streams])
    # each class's estimate before the batch: nan until its window holds a
    # gap, and 0.0 for a class configured at rate 0, which never arrives
    latest = [math.nan if rate > 0 else 0.0 for rate in rates]
    # row -1 - m of a batch's estimate table holds class m's entry of latest
    before = np.arange(-1, -1 - m_count, -1)[:, None]
    # the estimator is ready once every class with a positive configured
    # rate has a gap in its window, from the class's second arrival on
    ready = False
    stride = scenario.trace_stride
    done = 0
    while streams and done < scenario.arrivals:
        size = min(_RNG_CHUNK, scenario.arrivals - done)
        while True:
            horizon = min(s.last for s in streams)
            counts = [bisect_right(s.times, horizon) for s in streams]
            if sum(counts) >= size:
                break
            min(streams, key=attrgetter("last")).refill()
        times: list[float] = []
        for s, k in zip(streams, counts):
            times += s.times[:k]
        # stable, so equal times keep class order
        order = sorted(range(len(times)), key=times.__getitem__)[:size]
        rows = np.fromiter(order, np.intp, size)
        times = [times[j] for j in order]
        cls = np.repeat(classes, counts)[rows]
        cls_list = cls.tolist()
        taken = [cls_list.count(s.m) for s in streams]
        holds = np.concatenate([s.holds[:k] for s, k in zip(streams, counts)])[rows]
        limit = configured_limits[cls]

        warm = size            # the first row whose limit follows the estimates
        if estimating:
            if not ready:
                # from the row of the last class's second arrival on
                warm = 0
                for s, k in zip(streams, taken):
                    if s.taken + k < 2:
                        warm = size
                        break
                    row = -1
                    for _ in range(2 - s.taken):
                        row = cls_list.index(s.m, row + 1)
                    warm = max(warm, row)
                ready = warm < size
            else:
                warm = 0
            if ready:
                span = np.arange(size)
                own = np.concatenate([s.estimates[:k] for s, k in zip(streams, counts)])
                table = np.concatenate((own[rows], latest[::-1]))
                # the row of each class's latest arrival at or before each
                # row, or its entry of latest
                source = np.empty((m_count, size), dtype=np.intp)
                source[:] = before
                source[cls, span] = span
                np.maximum.accumulate(source, axis=1, out=source)
                columns = table[source[:, warm:]]
                y = np.array(floors(*columns))
                limit[warm:] = y[cls[warm:], span[:size - warm]] + unreserved
            for s, k in zip(streams, taken):
                if k:
                    latest[s.m] = s.estimates[k - 1]

        for s, k in zip(streams, taken):
            s.take(k)
        first = -(done + 1) % stride     # the row of the next traced arrival
        for j in range(first, warm, stride):
            partition_trace.append((times[j], *access))
            if estimating:
                estimator_trace.append((times[j], *rates))
        j = warm + (first - warm) % stride   # the first traced row from warm on
        if j < size:
            traced = np.arange(j - warm, size - warm, stride)
            at = times[j::stride]
            ys = y[:, traced].T.astype(np.intp).tolist()
            partition_trace.extend((t, *row) for t, row in zip(at, ys))
            estimates = columns[:, traced].T.tolist()
            estimator_trace.extend((t, *row) for t, row in zip(at, estimates))
        done += size
        yield zip(times, cls_list, holds.tolist(), limit.tolist())


def run_simulation(
    scenario: SimScenario, on_events: Callable[[list], None] | None = None
) -> SimMetrics:
    """Simulate the closed admission loop for ``scenario``.

    The arrivals come in time order in batches (``_arrival_batches``), each
    row with its holding time and its class limit; a heap holds only the
    pending departures. Before an arrival at time t, every departure at a
    time <= t is processed, so a departure frees its channel before an
    arrival at the same time is tested, and arrivals at the same time go by
    class index.

    Under the dynamic policy the guard partition follows the window
    estimates. Until the estimator is ready, the configured rates stand in.
    It is ready once every class with a positive configured rate has an
    inter-arrival gap in its window; a class configured at rate 0 never
    arrives, so it counts as ready from the start with estimate 0.0. The
    estimator sees every arrival, admitted or blocked, and the partition
    depends only on the estimates, so the limit each arrival is tested
    against depends only on the arrival times. It is computed per batch,
    ahead of the loop, and the loop only admits, counts and logs. The
    result is exact, not an approximation: each window's running sums over
    a chunk are one ``cumsum`` of the same adds and subtracts in the same
    order (``ArrivalWindow.record_arrivals``), and the allocator's floor
    rule runs the same float operations on columns as on one vector.

    When ``scenario.record_events`` is set, events (time, kind, class,
    decision, occupied) are collected in batches. A batch is passed to
    ``on_events`` once it holds ``_EVENT_BATCH`` events, checked after each
    arrival, and the last partial batch is passed when the run ends; the
    batches concatenate to the run's whole event log in order. With a sink,
    ``SimMetrics.events`` is None and the loop keeps no batch it has passed
    on. Without one, the batches collect into ``SimMetrics.events``.
    """
    n = scenario.config.n_channels
    m_count = len(scenario.rates)
    partition_trace: list = []
    estimator_trace: list = []
    batches = _arrival_batches(scenario, partition_trace, estimator_trace)

    # pending departures: (time, class_index, seq)
    departures: list = []
    push, pop = heapq.heappush, heapq.heappop
    seq = 0

    warmup_count = int(scenario.warmup * scenario.arrivals)
    arrivals_seen = 0
    occupied = 0
    arr_counts = [0] * m_count
    block_counts = [0] * m_count
    admit_counts = [0] * m_count
    in_measurement = warmup_count == 0
    measure_start = 0.0
    area = 0.0          # integral of occupancy over the measured interval
    last_t = 0.0
    events: list | None = [] if scenario.record_events else None
    held: list | None = None
    if events is not None and on_events is None:
        held = []
        on_events = held.extend

    for batch in batches:
        for t, m, hold, limit in batch:
            while departures and departures[0][0] <= t:
                dt, dm, _ = pop(departures)
                if in_measurement:
                    area += occupied * (dt - last_t)
                last_t = dt
                occupied -= 1
                if events is not None:
                    events.append((dt, "departure", dm + 1, "release", occupied))
            if in_measurement:
                area += occupied * (t - last_t)
            last_t = t
            arrivals_seen += 1

            accepted = occupied < limit
            if accepted:
                occupied += 1
                push(departures, (t + hold, m, seq))
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

            if events is not None:
                events.append(
                    (t, "arrival", m + 1, "accept" if accepted else "block", occupied))
                if len(events) >= _EVENT_BATCH:
                    on_events(events)
                    events = []

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
