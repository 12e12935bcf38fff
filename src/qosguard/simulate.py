"""Event-driven simulator of the closed admission loop.

Per-class Poisson arrivals feed sliding-window rate estimators; a call is
admitted iff the occupancy is below its class limit, and departures are
exponential. The estimator sees every arrival, admitted or blocked, so each
arrival's limit depends only on the arrival times. The feed
(``_arrival_batches``) computes the limits with numpy, a block of arrivals
at a time, in two stages: the merge stage (``_merge``) takes the block from
the classes' drawn-ahead arrivals in time order, and the limit stage
(``_estimated_access``) runs the allocator's ``guard_floors`` on each row's
window estimates. The admission stage (``admission.Admission``) then decides the
block's calls, orders its events and sums the occupancy integral. Runs are
deterministic for a fixed scenario, and both policies can be replayed on
the identical random draws for paired comparison.

A run's first draw imports ``numpy.random``: ~9-15 ms and ~5.5 MiB of RSS
on a 2-core x86-64 machine, 3.3 MiB of it OpenSSL, pulled in by
``secrets`` -> ``hmac`` -> ``hashlib``. Importing it before the config is
parsed would only move that time from the run to the set-up.

``SimScenario``'s fields are the ``[simulation]`` keys of a config, and
``[traffic] rates``: each field's default, check and rule live there once,
and ``config.ExperimentSpec`` declares its keys from them.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from operator import attrgetter
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .allocator import (RATE_VECTOR, SYSTEM_CONFIG, SystemConfig, checked, compute_partition,
                        field_errors, guard_floors, integer_at_least)
from .admission import Admission
from .traffic import ArrivalWindow

POLICY_DYNAMIC = "dynamic"
POLICY_SHARING = "sharing"
POLICIES = (POLICY_DYNAMIC, POLICY_SHARING)

# draws per generator call; it does not change the values drawn. A chunk's
# arrays are 4 KiB, above the 1 KiB below which numpy keeps freed blocks in
# a cache: arrays of many different smaller sizes fill that cache and raise
# the memory a run holds.
_RNG_CHUNK = 512
# arrivals per block handed to the admission stage, and per event batch; it
# does not change the run. A block makes some 120 numpy calls, whose fixed
# cost 2048 rows spread out. The limit stage's M x 2048 arrays and the
# admission stage's event buffers, N + 4096 rows long, set the memory a run
# peaks at.
_BLOCK = 2048
# (kind, decision) of an event by its code modulo 3; the code of an event of
# class index m is 3 * m plus the kind's position here
_EVENT_KINDS = (("arrival", "accept"), ("arrival", "block"), ("departure", "release"))


@dataclass(frozen=True)
class SimScenario:
    config: SystemConfig = checked(**SYSTEM_CONFIG)
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
        # the complete arrivals are among the drawn ones: count them only
        # once the drawn ones could fill the block
        if sum(len(s.times) for s in streams) >= size:
            # low may draw more arrivals at horizon, which go before a later
            # class's arrivals at that time
            counts = [s.times.searchsorted(horizon, "right" if s.m <= low.m else "left")
                      for s in streams]
            if sum(counts) >= size:
                break
        if horizon == math.inf:
            # the arrivals still needed lie at inf, where drawing on never reaches
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
    the configured ``rates``, on which ``guard_floors`` gives
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
    del table, source, span
    after = columns[:, -1].tolist()
    if any(map(math.isnan, latest)):
        # a class's estimates are nan until its second arrival, finite from then on
        nan_free = ~np.isnan(columns).any(axis=0)
        warm = int(nan_free.argmax()) if nan_free[-1] else size
        columns[:, :warm] = np.array(rates)[:, None]
    y = guard_floors(config, columns.T).T
    return y, columns, after


def _arrival_batches(scenario: SimScenario, partition_trace: list, estimator_trace: list):
    """Yield the run's ``scenario.arrivals`` arrivals in time order, ties by
    class index, in blocks of ``_BLOCK`` rows, and append the traced rows
    to the two trace lists. A block is four numpy columns: the arrival
    times, the class indices m, the departure times should the calls be
    admitted and the limits of their classes. A departure time is the
    arrival time plus the holding time, one numpy add per block: the same
    float add as adding them when the call is admitted.

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
        block = times, cls, times + holds, y[cls, np.arange(size)] + unreserved
        # no array of a block outlives its yield but the ones handed out
        del times, cls, holds, own, y, traced
        yield block
        del block


def event_fields(m_count: int) -> list[tuple[str, int, str]]:
    """The (kind, class, decision) fields of each event code, by code, for
    a run of ``m_count`` classes; the class is numbered from 1."""
    return [(kind, m + 1, decision)
            for m in range(m_count) for kind, decision in _EVENT_KINDS]


def run_simulation(
    scenario: SimScenario, on_events: Callable[..., None] | None = None
) -> SimMetrics:
    """Simulate the closed admission loop for ``scenario``.

    The arrivals come in time order in blocks (``_arrival_batches``), each
    row with its departure time and its class limit, and the admission
    stage (``admission.Admission``) decides each block; a run holds one block at a
    time. Before an arrival at time t every departure at a time <= t frees
    its channel, and arrivals at the same time go by class index. The
    result is exact, not an approximation: the window sums, the floor rule
    and the occupancy integral run the float operations of a loop that
    takes one arrival at a time, in its order.

    The first ``int(warmup * arrivals)`` arrivals are not measured: the
    measured interval starts at the next arrival's time, just after which
    the area restarts at 0.0 (at 0.0 without a warm-up). A class's measured
    arrivals are counted from the class column and its blocks from the
    blocked rows.

    When ``on_events`` is given, it gets each block's events as one batch
    of three numpy columns: the event times (float), the event codes
    (``event_fields`` gives their fields) and the occupancy after each
    event (int). A batch holds its block's arrivals and the departures
    logged before each of them; the calls still pending when the run ends
    log nothing. The batches concatenate to the run's whole event log in
    order, and the run keeps no batch it has passed on. Without a sink no
    event code is built.
    """
    m_count = len(scenario.rates)
    partition_trace: list = []
    estimator_trace: list = []
    feed = _arrival_batches(scenario, partition_trace, estimator_trace)
    stage = Admission(scenario.config.n_channels, m_count, _BLOCK)

    warmup_count = int(scenario.warmup * scenario.arrivals)
    arr_counts = np.zeros(m_count, dtype=np.int64)
    block_counts = [0] * m_count
    measure_start = 0.0
    done = 0

    for times, cls, departs, limits in feed:
        size = len(times)
        first = warmup_count - done      # the block row of the first measured arrival
        warm = first if warmup_count and 0 <= first < size else -1
        blocked = stage.admit(times, cls, departs, limits, warm, on_events)
        if warm >= 0:
            measure_start = float(times[warm])
        start = max(first, 0)            # the first measured row of the block
        if start < size:
            arr_counts += np.bincount(cls[start:], minlength=m_count)
            # counted in Python: indexing cls by the blocked rows would make
            # a small array of a new size per block, and numpy keeps such
            # blocks in its cache, which raises the memory a run holds
            if measured := blocked[bisect_left(blocked, start):]:
                classes = cls.tolist()
                for row in measured:
                    block_counts[classes[row]] += 1
                del classes
        done += size
        del times, cls, departs, limits

    duration = max(stage.last_t - measure_start, 0.0)
    arrived, blocks = arr_counts.tolist(), block_counts
    blocking = tuple(b / a if a else 0.0 for a, b in zip(arrived, blocks))
    utilization = (stage.area / (duration * scenario.config.n_channels)
                   if duration > 0 else 0.0)
    return SimMetrics(
        per_class_arrivals=tuple(arrived),
        per_class_blocks=tuple(blocks),
        empirical_blocking=blocking,
        utilization=utilization,
        duration=duration,
        partition_trace=partition_trace,
        estimator_trace=estimator_trace,
    )
