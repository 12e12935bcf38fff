"""Event-driven simulator of the closed admission loop.

Per-class Poisson arrivals feed sliding-window rate estimators; a call is
admitted iff the occupancy is below its class limit, and departures are
exponential. The estimator sees every arrival, admitted or blocked, so each
arrival's limit depends only on the arrival times. The feed
(``_arrival_batches``) computes the limits with numpy ahead of the loop, a
block of arrivals at a time, in two stages: the merge stage (``_merge``)
takes the block from the classes' drawn-ahead arrivals in time order, and
the limit stage (``_estimated_access``) runs the allocator's ``partitions``
on each row's window estimates. The loop only admits calls, with a heap of the
pending departure times, and an ``on_events`` sink gets each block's events
after it (``run_simulation``). Runs are deterministic for a fixed scenario,
and both policies can be replayed on the identical random draws for paired
comparison.

``SimScenario``'s fields are the ``[simulation]`` keys of a config, and
``[traffic] rates``: each field's default, check and rule live there once,
and ``config.ExperimentSpec`` declares its keys from them.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from itertools import count, islice
from operator import attrgetter
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .allocator import (RATE_VECTOR, SystemConfig, checked, compute_partition, field_errors,
                        integer_at_least, partitions)
from .traffic import ArrivalWindow

POLICY_DYNAMIC = "dynamic"
POLICY_SHARING = "sharing"
POLICIES = (POLICY_DYNAMIC, POLICY_SHARING)

# draws per generator call; it does not change the values drawn. A chunk's
# arrays are 2 KiB, above the 1 KiB below which numpy keeps freed blocks in
# a cache: arrays of many different smaller sizes fill that cache and raise
# the memory a run holds.
_RNG_CHUNK = 256
# arrivals per block handed to the loop, and per event batch; it does not
# change the run
_BLOCK = 1024
# (kind, decision) of an event by its code modulo 3; the code of an event of
# class index m is 3 * m plus the kind's position here
_EVENT_KINDS = (("arrival", "accept"), ("arrival", "block"), ("departure", "release"))


@dataclass(frozen=True)
class SimScenario:
    config: SystemConfig
    # per-class arrival rates, class 1 first
    rates: tuple[float, ...] = checked(**RATE_VECTOR)
    # total arrivals simulated (all classes)
    arrivals: int = checked(1_000_000, **integer_at_least(1))
    seed: int = checked(0, **integer_at_least(0))
    policy: str = checked(POLICY_DYNAMIC, check=lambda v: v in POLICIES,
                          rule=f"must be {' or '.join(POLICIES)}")
    # fraction of arrivals excluded from metrics
    warmup: float = checked(0.1, check=lambda v: 0 <= v < 1, rule="must be in [0, 1)")
    bypass_estimator: bool = False   # use true rates instead of window estimates
    # record traces every this many arrivals
    trace_stride: int = checked(1000, **integer_at_least(1))

    def __post_init__(self):
        if errors := field_errors(self):
            raise errors[0]
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))


@dataclass
class SimMetrics:
    per_class_arrivals: tuple[int, ...]
    per_class_blocks: tuple[int, ...]
    empirical_blocking: tuple[float, ...]
    utilization: float
    duration: float                                  # measured interval, seconds
    partition_trace: list = field(default_factory=list)   # (time, y_1..y_M)
    estimator_trace: list = field(default_factory=list)   # (time, est_1..est_M)
    # always None, kept because perfbench/probe.py reads it; events go to a sink
    events: list | None = None


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


def _merge(streams, classes, size):
    """The next ``size`` arrivals of ``streams``, whose class indices are
    ``classes``, dropped from the streams: their times, class indices,
    holding times and own-class window estimates (None without windows), in
    the order of one stable ``argsort`` of their concatenated times.

    Every class's arrivals before the earliest last drawn time among the
    classes are complete, and so are those at that time of the first class
    that drew it and of the classes before it. A later class's arrivals at
    that time wait: a gap of 0.0, or one too small to change the time, may
    give the first class another arrival at it. That class draws on until
    the complete arrivals are ``size`` or more.
    """
    while True:
        low = min(streams, key=attrgetter("last"))
        horizon = low.last
        # low may draw more arrivals at horizon, which go before a later
        # class's arrivals at that time
        counts = [s.times.searchsorted(horizon, "right" if s.m <= low.m else "left")
                  for s in streams]
        if sum(counts) >= size:
            break
        if horizon == math.inf:
            # the loop's heap sentinel is inf; a rate this small has no run
            raise ValueError("arrival times overflow to inf: a positive rate is below "
                             "the smallest whose mean gap 1/rate is finite")
        low.refill()
    times = np.concatenate([s.times[:k] for s, k in zip(streams, counts)])
    # stable, so equal times keep class order
    rows = times.argsort(kind="stable")[:size]
    cls = np.repeat(classes, counts)[rows]
    holds = np.concatenate([s.holds[:k] for s, k in zip(streams, counts)])[rows]
    own = (np.concatenate([s.estimates[:k] for s, k in zip(streams, counts)])[rows]
           if streams[0].window is not None else None)
    taken = np.bincount(cls, minlength=classes[-1] + 1)[classes].tolist()
    for s, k in zip(streams, taken):
        s.times, s.holds, s.estimates = s.times[k:], s.holds[k:], s.estimates[k:]
    return times[rows], cls, holds, own


def _estimated_access(cls, own, latest, rates, config):
    """A block's guard floors y (M x rows, int) under the window estimates,
    the estimate vector of each row (M x rows, float) and the last row's
    vector, before any warm row takes the rates: the next block's ``latest``.

    ``own`` is each row's estimate of its own class ``cls``, and ``latest``
    each class's estimate before the block: nan until its window holds a
    gap, and 0.0 for a class configured at rate 0, which never arrives. A
    row's vector holds every class's latest estimate at that row. From the
    first row whose vector has no nan the estimator is ready, and so it is
    for the whole block if ``latest`` has no nan; the rows before it take
    the configured ``rates``, on which ``partitions`` gives
    ``compute_partition``'s configured partition by the same float operations.
    """
    m_count, size = len(rates), len(cls)
    span = np.arange(size)
    # row -1 - m of the table holds class m's entry of latest
    table = np.concatenate((own, latest[::-1]))
    # the row of each class's latest arrival at or before each row, or its
    # entry of latest
    source = np.empty((m_count, size), dtype=np.intp)
    source[:] = np.arange(-1, -1 - m_count, -1)[:, None]
    source[cls, span] = span
    np.maximum.accumulate(source, axis=1, out=source)
    columns = table[source]
    del table, source
    after = columns[:, -1].tolist()
    if any(map(math.isnan, latest)):
        # a class's estimates are nan until its second arrival, finite from then on
        nan_free = ~np.isnan(columns).any(axis=0)
        warm = int(nan_free.argmax()) if nan_free[-1] else size
        columns[:, :warm] = np.array(rates)[:, None]
    y = partitions(config, columns.T)[0].T
    return y, columns, after


def _arrival_batches(scenario: SimScenario, partition_trace: list, estimator_trace: list):
    """Yield the run's ``scenario.arrivals`` arrivals in time order, ties by
    class index, in blocks of ``_BLOCK`` rows, and append the traced rows
    to the two trace lists. A block is four columns: the arrival times, the
    class indices m and the departure times should the calls be admitted,
    as numpy arrays, and the limits of their classes, a list. A departure
    time is the arrival time plus the holding time, one numpy add per
    block: the same float add as adding them when the call is admitted.

    The merge stage takes each block from the classes' streams
    (``_ClassStream``). Under the dynamic policy with the window estimator
    the limit stage gives its rows' guard floors y; every row of another
    run gets the configured y: the configured partition's under the dynamic
    policy, the whole guard pool under sharing. A row's limit is its
    class's y plus the channels outside the guard pool.
    """
    config, rates = scenario.config, scenario.rates
    m_count = len(rates)
    estimating = scenario.policy == POLICY_DYNAMIC and not scenario.bypass_estimator
    if scenario.policy == POLICY_DYNAMIC:
        access = compute_partition(config, rates).guard_access
    else:
        access = (config.guard,) * m_count
    configured = np.array(access, dtype=np.intp)[:, None]
    unreserved = config.n_channels - config.guard

    seeds = np.random.SeedSequence(scenario.seed).spawn(2 * m_count)
    streams = [
        _ClassStream(m, rate, seeds[m], seeds[m_count + m], 1.0 / config.mu,
                     ArrivalWindow(m + 1, config.window_n) if estimating else None)
        for m, rate in enumerate(rates) if rate > 0
    ]
    classes = np.array([s.m for s in streams])
    latest = [math.nan if rate > 0 else 0.0 for rate in rates]

    for done in range(0, scenario.arrivals if streams else 0, _BLOCK):
        size = min(_BLOCK, scenario.arrivals - done)
        times, cls, holds, own = _merge(streams, classes, size)
        # gathered by an index array: strided views here measured ~60 KiB
        # more peak RSS on a 100k-arrival run
        traced = np.arange(-(done + 1) % scenario.trace_stride, size, scenario.trace_stride)
        at = times[traced].tolist()
        if estimating:
            y, columns, latest = _estimated_access(cls, own, latest, rates, config)
            estimator_trace.extend(zip(at, *columns[:, traced].tolist()))
            del columns
        else:
            y = np.broadcast_to(configured, (m_count, size))
        partition_trace.extend(zip(at, *y[:, traced].tolist()))
        block = times, cls, times + holds, (y[cls, np.arange(size)] + unreserved).tolist()
        # no array of a block outlives its yield but the ones handed out
        del times, cls, holds, own, y, traced
        yield block
        del block


def event_fields(m_count: int) -> list[tuple[str, int, str]]:
    """The (kind, class, decision) fields of each event code, by code, for
    a run of ``m_count`` classes; the class is numbered from 1."""
    return [(kind, m + 1, decision)
            for m in range(m_count) for kind, decision in _EVENT_KINDS]


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


def _block_events(times, cls, departs, blocked, pending, occupied):
    """The events of one admitted block, in the order the loop met them, as
    three columns: the event times, their codes (``event_fields``) and the
    occupancy after each event; and the departures still pending after it.

    ``times``, ``cls`` and ``departs`` are the block's columns, ``blocked``
    its blocked rows in order and ``occupied`` the occupancy before it.
    ``pending`` holds the departure times and class indices of the admitted
    calls not yet logged as departed. The loop's heap pops a departure
    admitted at row j with time dt just before the first row i >= j + 1
    whose time is >= dt, its slot; departures that share a slot leave by
    (dt, class), the order of a heap of (dt, class) entries. A departure
    whose slot is past the block's last row is carried in the pending
    departures to the next block, where its slot is found again.
    """
    size = len(times)
    carried = len(pending[0])
    refused = np.zeros(size, dtype=bool)
    refused[blocked] = True
    rows = np.flatnonzero(~refused)
    dt = np.concatenate((pending[0], departs[rows]))
    dm = np.concatenate((pending[1], cls[rows]))
    slot = times.searchsorted(dt, "left")
    np.maximum(slot[carried:], rows + 1, out=slot[carried:])
    order = np.lexsort((dm, dt, slot))
    slot, dt, dm = slot[order], dt[order], dm[order]
    gone = int(slot.searchsorted(size))   # the departures logged in this block
    # each departure follows the arrivals before its slot, and each arrival
    # the departures at or before its row
    at_departure = slot[:gone] + np.arange(gone)
    is_arrival = np.ones(size + gone, dtype=bool)
    is_arrival[at_departure] = False
    time = np.empty(size + gone)
    time[is_arrival] = times
    time[at_departure] = dt[:gone]
    code = np.empty(size + gone, dtype=np.intp)
    code[is_arrival] = 3 * cls + refused
    code[at_departure] = 3 * dm[:gone] + 2
    after = np.empty(size + gone, dtype=np.intp)     # +1 per accept, -1 per release
    after[is_arrival] = ~refused
    after[at_departure] = -1
    after[0] += occupied
    after.cumsum(out=after)
    return (time, code, after), (dt[gone:], dm[gone:])


def run_simulation(
    scenario: SimScenario, on_events: Callable[..., None] | None = None
) -> SimMetrics:
    """Simulate the closed admission loop for ``scenario``.

    The arrivals come in time order in blocks (``_arrival_batches``), each
    row with its departure time and its class limit; a heap holds only the
    pending departures, and each block is dropped before the next is built.
    Before an arrival at time t, every departure at a time <= t is
    processed, so a departure frees its channel before an arrival at the
    same time is tested, and arrivals at the same time go by class index.

    Under the dynamic policy the guard partition follows the window
    estimates (``_estimated_access``). The result is exact, not an
    approximation: each window's running sums over a chunk are one
    ``cumsum`` of the same adds and subtracts in the same order
    (``ArrivalWindow.record_arrivals``), and the allocator's ``partitions``
    gives each row of its grid the floors of that row's vector alone.

    The loop (``_admit``) only admits and notes the blocked rows. After
    each block, a class's measured arrivals are counted from the class
    column and its blocks from the blocked rows. The first
    ``int(warmup * arrivals)`` arrivals are not measured: the block that
    holds the first measured arrival is split after it, where the area
    restarts at 0.0 and the measured interval starts at its time. The
    area then sums the same terms in the same order as a loop that starts
    adding there. Without a warm-up, the measured interval starts at 0.0.

    When ``on_events`` is given, each block's events are built after the
    loop has admitted it (``_block_events``) and passed to ``on_events`` as
    one batch of three numpy columns: the event times (float), the event
    codes and the occupancy after each event (int); ``event_fields`` gives
    the fields of each code. A block's batch holds its arrivals and the
    departures logged before each of them; the calls still pending when the
    run ends log nothing. The batches concatenate to the run's whole event
    log in order, and the run keeps no batch it has passed on. Without a
    sink no event is built.
    """
    n = scenario.config.n_channels
    m_count = len(scenario.rates)
    partition_trace: list = []
    estimator_trace: list = []
    feed = _arrival_batches(scenario, partition_trace, estimator_trace)

    pending = (np.empty(0), np.empty(0, dtype=np.intp))
    departures = [math.inf]

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
        rows = zip(count(), times.tolist(), departs.tolist(), limits)
        before = occupied
        first = warmup_count - done      # the block row of the first measured arrival
        if warmup_count and 0 <= first < size:
            occupied, area, last_t = _admit(
                islice(rows, first + 1), departures, occupied, area, last_t, blocked)
            area, measure_start = 0.0, float(times[first])
        occupied, area, last_t = _admit(rows, departures, occupied, area, last_t, blocked)
        start = max(first, 0)            # the first measured row of the block
        if start < size:
            arr_counts += np.bincount(cls[start:], minlength=m_count)
            # counted in Python: indexing cls by the blocked rows would make
            # a small array of a new size per block, and numpy keeps such
            # blocks in its cache, which raises the memory a run holds
            for row in blocked[bisect_left(blocked, start):]:
                block_counts[classes[row]] += 1
        if on_events is not None:
            batch, pending = _block_events(times, cls, departs, blocked, pending, before)
            on_events(*batch)
            del batch
        blocked.clear()
        done += size
        del times, cls, departs, limits, classes, rows

    duration = max(last_t - measure_start, 0.0)
    arrived, blocks = arr_counts.tolist(), block_counts
    blocking = tuple(b / a if a else 0.0 for a, b in zip(arrived, blocks))
    utilization = area / (duration * n) if duration > 0 else 0.0
    return SimMetrics(
        per_class_arrivals=tuple(arrived),
        per_class_blocks=tuple(blocks),
        empirical_blocking=blocking,
        utilization=utilization,
        duration=duration,
        partition_trace=partition_trace,
        estimator_trace=estimator_trace,
    )


def compare_policies(scenario: SimScenario) -> tuple[SimMetrics, SimMetrics]:
    """Run dynamic reservation and complete sharing on identical random
    draws; the two runs' metrics, in the order of ``POLICIES``."""
    dyn = run_simulation(replace(scenario, policy=POLICY_DYNAMIC))
    share = run_simulation(replace(scenario, policy=POLICY_SHARING))
    return dyn, share
