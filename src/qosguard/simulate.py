"""Event-driven simulator of the closed admission loop.

Per-class Poisson arrivals feed sliding-window rate estimators. Each class
draws its arrival times and holding times in chunks from its own two
generators, and the classes are merged in time order ahead of the loop; a
heap holds only the pending departure times. At equal times a departure
frees its channel before an arrival is tested, and arrivals go by class
index. Under the dynamic policy the guard floors y_m follow the window
estimates through the allocator's floor rule. The estimator sees every
arrival, admitted or blocked, so the estimates, and with them each
arrival's class limit, depend only on the arrival times: they are computed
per block of arrivals with numpy, ahead of the loop, together with each
arrival's departure time should it be admitted. The loop only admits and
notes the blocked rows; the per-class counts come from each block's class
column afterwards. A call is admitted iff the occupancy is below its class
limit. Departures are exponential. Runs are deterministic for a fixed
scenario, and both policies can be replayed on the identical random draws
for paired comparison.

With ``record_events`` set, a second loop, which also keeps each pending
departure's class, hands its per-call event log out in batches of at least
``_EVENT_BATCH`` events, to a caller's ``on_events`` sink as the run goes
or, without one, into ``SimMetrics.events``. A sink keeps the memory a run
holds independent of its length.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from itertools import count, islice
from operator import attrgetter
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .allocator import SystemConfig, compute_partition, floor_rule
from .traffic import ArrivalWindow

POLICY_DYNAMIC = "dynamic"
POLICY_SHARING = "sharing"

# draws per generator call; it does not change the values drawn. A chunk's
# arrays are 2 KiB, above the 1 KiB below which numpy keeps freed blocks in
# a cache: arrays of many different smaller sizes fill that cache and raise
# the memory a run holds.
_RNG_CHUNK = 256
# arrivals per block handed to the loop; it does not change the run
_BLOCK = 1024
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
    the class's two generators: arrays of the arrival times, the holding
    times and, with a window, the window's estimate after each arrival.

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
        self.times = self.holds = self.estimates = np.empty(0)  # not yet handed out
        self.last = 0.0                  # the last time drawn

    def refill(self) -> None:
        """Draw the next chunk behind the arrivals not yet handed out. Times
        that overflow to inf are dropped, and ``last`` becomes inf."""
        gaps = self.arrival_rng.exponential(self.mean, size=_RNG_CHUNK)
        with np.errstate(over="ignore"):
            gaps[0] += self.last
            times = gaps.cumsum()
        self.last = float(times[-1])
        if not math.isfinite(self.last):
            times, self.last = times[np.isfinite(times)], math.inf
        self.times = np.concatenate((self.times, times))
        holds = self.hold_rng.exponential(self.mean_hold, size=_RNG_CHUNK)
        self.holds = np.concatenate((self.holds, holds))
        if self.window is not None:
            self.estimates = np.concatenate(
                (self.estimates, self.window.record_arrivals(times)))


def _arrival_batches(scenario: SimScenario, partition_trace: list, estimator_trace: list):
    """Yield the run's ``scenario.arrivals`` arrivals in time order, ties by
    class index, in blocks of ``_BLOCK`` rows, and append the traced rows
    to the two trace lists. A block is four columns: the arrival times, the
    class indices m (an array), the departure times should the calls be
    admitted and the limits of their classes. A departure time is the
    arrival time plus the holding time, one numpy add per block: the same
    float add as adding them when the call is admitted.

    Each class with a positive rate draws ahead in chunks (``_ClassStream``).
    Every class's arrivals up to the earliest last drawn time among the
    classes are complete: the class with that last time draws on until
    they are a block or more, and the earliest of them, merged by one
    stable ``argsort`` of their concatenated times, make the block; the
    other columns are gathered by the same rows. Nothing here depends on
    the admission decisions, so a block's limits are computed before the
    loop sees it. The windows give each class's estimate after each of its
    arrivals, per chunk. The estimate vector at a row holds every class's
    latest estimate: each class's estimates are forward-filled across the
    block's rows, and the allocator's floor rule runs on those columns.
    Rows before the estimator is ready, and every row of a run that does
    not estimate, get the configured partition.
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
    # each class's estimate before the block: nan until its window holds a
    # gap, and 0.0 for a class configured at rate 0, which never arrives
    latest = [math.nan if rate > 0 else 0.0 for rate in rates]
    # row -1 - m of a block's estimate table holds class m's entry of latest
    before = np.arange(-1, -1 - m_count, -1)[:, None]
    stride = scenario.trace_stride
    # ready once every class with a positive rate has a gap in its window;
    # a class's estimates are nan until its second arrival, finite from then on
    ready = False

    # a function, so that no array of a block outlives it but its four columns
    def block(done, size):
        nonlocal ready, latest
        while True:
            horizon = min(s.last for s in streams)
            counts = [s.times.searchsorted(horizon, "right") for s in streams]
            if sum(counts) >= size:
                break
            if horizon == math.inf:
                # the loop's heap sentinel is inf; a rate this small has no run
                raise ValueError("arrival times overflow to inf: a positive rate is below "
                                 "the smallest whose mean gap 1/rate is finite")
            min(streams, key=attrgetter("last")).refill()
        times = np.concatenate([s.times[:k] for s, k in zip(streams, counts)])
        # stable, so equal times keep class order
        rows = times.argsort(kind="stable")[:size]
        times = times[rows]
        cls = np.repeat(classes, counts)[rows]
        taken = np.bincount(cls, minlength=m_count)[classes].tolist()
        holds = np.concatenate([s.holds[:k] for s, k in zip(streams, counts)])[rows]
        limit = configured_limits[cls]

        warm = 0 if ready else size    # the first row whose limit follows the estimates
        if estimating:
            span = np.arange(size)
            own = np.concatenate([s.estimates[:k] for s, k in zip(streams, counts)])
            table = np.concatenate((own[rows], latest[::-1]))
            # the row of each class's latest arrival at or before each row,
            # or its entry of latest
            source = np.empty((m_count, size), dtype=np.intp)
            source[:] = before
            source[cls, span] = span
            np.maximum.accumulate(source, axis=1, out=source)
            columns = table[source]
            del own, table, source
            latest = columns[:, -1].tolist()   # each class's estimate after the block
            if not ready:
                nan_free = ~np.isnan(columns).any(axis=0)
                ready = bool(nan_free[-1])
                warm = int(nan_free.argmax()) if ready else size
                columns = columns[:, warm:]
            y = np.array(floors(*columns))
            limit[warm:] = y[cls[warm:], span[:size - warm]] + unreserved

        for s, k in zip(streams, taken):     # drop the arrivals handed out
            s.times, s.holds, s.estimates = s.times[k:], s.holds[k:], s.estimates[k:]
        departs = (times + holds).tolist()
        times = times.tolist()
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
        return times, cls, departs, limit.tolist()

    for done in range(0, scenario.arrivals if streams else 0, _BLOCK):
        yield block(done, min(_BLOCK, scenario.arrivals - done))


def _admit(rows, departures, occupied, area, last_t, blocked):
    """Run the admission loop over ``rows`` of (row, time, departure time,
    limit) and return the new (occupied, area, last_t).

    ``departures`` is a heap of the pending departure times over an ``inf``
    sentinel. Before an arrival at time t, every departure at a time <= t
    frees its channel; tied departures add ``occupied * 0.0`` to the area,
    so their order does not matter. ``area`` gains the occupancy times each
    interval, and each blocked row's index is appended to ``blocked``.
    """
    push, pop = heapq.heappush, heapq.heappop
    for row, t, departure, limit in rows:
        while departures[0] <= t:
            dt = pop(departures)
            area += occupied * (dt - last_t)
            last_t = dt
            occupied -= 1
        area += occupied * (t - last_t)
        last_t = t
        if occupied < limit:
            occupied += 1
            push(departures, departure)
        else:
            blocked.append(row)
    return occupied, area, last_t


def _admit_logged(rows, departures, occupied, area, last_t, blocked, events, on_events):
    """``_admit`` over rows of (row, time, class index m, departure time,
    limit), which also logs every event to ``events``.

    The heap holds (departure time, m), so that a departure's event names
    its class; tied departures pop by class, as in a heap of every event.
    Once ``events`` holds ``_EVENT_BATCH`` events, checked after each
    arrival, a copy goes to ``on_events`` and ``events`` is emptied.
    """
    push, pop = heapq.heappush, heapq.heappop
    log = events.append
    for row, t, m, departure, limit in rows:
        while departures[0][0] <= t:
            dt, dm = pop(departures)
            area += occupied * (dt - last_t)
            last_t = dt
            occupied -= 1
            log((dt, "departure", dm + 1, "release", occupied))
        area += occupied * (t - last_t)
        last_t = t
        if occupied < limit:
            occupied += 1
            push(departures, (departure, m))
            log((t, "arrival", m + 1, "accept", occupied))
        else:
            blocked.append(row)
            log((t, "arrival", m + 1, "block", occupied))
        if len(events) >= _EVENT_BATCH:
            on_events(events.copy())
            events.clear()
    return occupied, area, last_t


def run_simulation(
    scenario: SimScenario, on_events: Callable[[list], None] | None = None
) -> SimMetrics:
    """Simulate the closed admission loop for ``scenario``.

    The arrivals come in time order in blocks (``_arrival_batches``), each
    row with its departure time and its class limit; a heap holds only the
    pending departures, and each block is dropped before the next is built.
    Before an arrival at time t, every departure at a time <= t is
    processed, so a departure frees its channel before an arrival at the
    same time is tested, and arrivals at the same time go by class index.

    Under the dynamic policy the guard partition follows the window
    estimates. Until the estimator is ready, the configured rates stand in.
    It is ready once every class with a positive configured rate has an
    inter-arrival gap in its window; a class configured at rate 0 never
    arrives, so it counts as ready from the start with estimate 0.0. The
    estimator sees every arrival, admitted or blocked, and the partition
    depends only on the estimates, so the limit each arrival is tested
    against depends only on the arrival times. It is computed per block,
    ahead of the loop. The result is exact, not an approximation: each
    window's running sums over a chunk are one ``cumsum`` of the same adds
    and subtracts in the same order (``ArrivalWindow.record_arrivals``),
    and the allocator's floor rule runs the same float operations on
    columns as on one vector.

    The loop (``_admit``) only admits and notes the blocked rows. After
    each block, a class's measured arrivals are counted from the class
    column and its blocks from the blocked rows; its admissions are the
    difference. The first ``int(warmup * arrivals)`` arrivals are not
    measured: the block that holds the first measured arrival is split
    after it, where the area restarts at 0.0 and the measured interval
    starts at its time. The area then sums the same terms in the same
    order as a loop that starts adding there. Without a warm-up, the
    measured interval starts at 0.0.

    When ``scenario.record_events`` is set, the loop that also logs
    (``_admit_logged``) runs instead, and events (time, kind, class,
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
    feed = _arrival_batches(scenario, partition_trace, estimator_trace)

    logged = scenario.record_events
    held: list | None = None
    if logged:
        if on_events is None:
            held = []
            on_events = held.extend
        events: list = []
        departures: list = [(math.inf, 0)]
        admit = partial(_admit_logged, events=events, on_events=on_events)
    else:
        departures = [math.inf]
        admit = _admit

    warmup_count = int(scenario.warmup * scenario.arrivals)
    occupied = 0
    arr_counts = np.zeros(m_count, dtype=np.int64)
    block_counts = [0] * m_count
    measure_start = 0.0
    area = 0.0          # integral of occupancy, over the measured interval once it starts
    last_t = 0.0
    blocked: list[int] = []
    done = 0

    for times, cls, departs, limits in feed:
        size = len(times)
        classes = cls.tolist()
        if logged:
            rows = zip(count(), times, classes, departs, limits)
        else:
            rows = zip(count(), times, departs, limits)
        first = warmup_count - done      # the block row of the first measured arrival
        if warmup_count and 0 <= first < size:
            occupied, area, last_t = admit(
                islice(rows, first + 1), departures, occupied, area, last_t, blocked)
            area, measure_start = 0.0, times[first]
        occupied, area, last_t = admit(rows, departures, occupied, area, last_t, blocked)
        start = max(first, 0)            # the first measured row of the block
        if start < size:
            arr_counts += np.bincount(cls[start:], minlength=m_count)
            # counted in Python: indexing cls by the blocked rows would make
            # a small array of a new size per block, and numpy keeps such
            # blocks in its cache, which raises the memory a run holds
            for row in blocked[bisect_left(blocked, start):]:
                block_counts[classes[row]] += 1
        blocked.clear()
        done += size
        del times, cls, departs, limits, classes, rows

    if logged and events:
        on_events(events)
    duration = max(last_t - measure_start, 0.0)
    arrived, blocks = arr_counts.tolist(), block_counts
    blocking = tuple(b / a if a else 0.0 for a, b in zip(arrived, blocks))
    utilization = area / (duration * n) if duration > 0 else 0.0
    return SimMetrics(
        per_class_arrivals=tuple(arrived),
        per_class_blocks=tuple(blocks),
        per_class_admissions=tuple(a - b for a, b in zip(arrived, blocks)),
        empirical_blocking=blocking,
        utilization=utilization,
        duration=duration,
        partition_trace=partition_trace,
        estimator_trace=estimator_trace,
        events=held,
    )


def compare_policies(scenario: SimScenario) -> tuple[SimMetrics, SimMetrics]:
    """Run dynamic reservation and complete sharing on identical random draws."""
    dyn = run_simulation(replace(scenario, policy=POLICY_DYNAMIC))
    share = run_simulation(replace(scenario, policy=POLICY_SHARING))
    return dyn, share
