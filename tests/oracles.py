"""Independent oracles used across the test suite.

These deliberately avoid the code paths they check: the chain oracle is a
dense linear solve of the balance equations, the closed-form oracle
evaluates the printed product forms term by term, and the partition oracle
uses exact rational arithmetic. The guard-floor reference keeps the
per-class arithmetic that the allocator's unrolled floor rule replaced, with
every sum an explicit left-to-right loop (builtin ``sum`` compensates float
rounding on Python 3.12 and later, the floor rule does not). The
CSV writer formats every row through ``csv.writer``, field by field.
The reference simulator is the plain event loop: one heap of every event,
one draw per scheduled arrival, the window estimator one arrival at a time
(``ArrivalWindowReference``, the running sum updated gap by gap) and a full
``compute_partition`` on every arrival; ``EventLog`` expands a run's
event batches into the reference loop's event tuples. ``admit_reference``
and ``block_events_reference`` are the simulator's admission loop (a heap
of the pending departure times) and its numpy rebuild of a block's events,
as they ran before the per-block admission stage replaced them.
``merge_reference`` is the simulator's merge stage as it ran before it
counted the complete arrivals only once the drawn ones could fill a block:
it searches every class's times on every round. The point
solver is the analyzer as it ran before it took a grid: one point at a
time, the Erlang-B recurrence a Python loop over floats. The full-width
solver is the grid solver as it ran before it narrowed to the guard band:
every row binned, suffix-summed and logged over all N+1 states. ``manifest_to_ini``
turns a manifest back into the config text it records, line by line.
"""

from __future__ import annotations

import csv
import heapq
import math
from collections import deque
from operator import attrgetter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from qosguard.allocator import _FLOOR_SNAP, compute_partition
from qosguard.markov import blocking_probabilities
from qosguard.simulate import POLICY_DYNAMIC, SimMetrics, event_fields, run_simulation


class TranscriptionDiscrepancy(Exception):
    """Closed-form blocking disagrees with the steady-state solver."""

    def __init__(self, closed_form, solver):
        self.closed_form = tuple(closed_form)
        self.solver = tuple(solver)
        super().__init__(
            f"closed-form blocking {self.closed_form} disagrees with "
            f"steady_state {self.solver}"
        )


def dense_steady_state(n: int, mu: float, birth_rate) -> np.ndarray:
    """Steady state of a birth-death chain on 0..n by dense linear solve.

    ``birth_rate(i)`` is the upward rate out of state i; downward rate is i*mu.
    """
    q = np.zeros((n + 1, n + 1))
    for i in range(n):
        q[i, i + 1] = birth_rate(i)
    for i in range(1, n + 1):
        q[i, i - 1] = i * mu
    np.fill_diagonal(q, -q.sum(axis=1))
    # replace the last balance equation with the normalization constraint
    a = q.T.copy()
    a[-1, :] = 1.0
    b = np.zeros(n + 1)
    b[-1] = 1.0
    return np.linalg.solve(a, b)


@dataclass(frozen=True)
class PointReport:
    per_class: tuple[float, ...]    # B_m
    utilization: float              # E[occupied] / N
    offered_load: float             # total rate / mu, in Erlangs


def steady_state_point(config, limits, rates) -> np.ndarray:
    """P_0..P_N of one point, by the log-domain product form on 1-D arrays:
    the rates binned at their limits, suffix sums from the top, then log,
    cumsum, a max shift, exp and normalisation."""
    rates = tuple(float(r) for r in rates)
    n = config.n_channels
    at_limit = np.bincount(limits, weights=rates, minlength=n + 1)
    birth = np.cumsum(at_limit[::-1])[::-1][1:]
    with np.errstate(divide="ignore"):
        steps = np.log(birth) - np.log(np.arange(1, n + 1) * config.mu)
    logw = np.concatenate(([0.0], np.cumsum(steps)))
    probs = np.exp(logw - logw.max())
    probs /= probs.sum()
    return probs


def blocking_point(config, limits, rates) -> PointReport:
    """B_m = sum of P_i over i >= N_m, utilization and offered load of one
    point, from ``steady_state_point``; the total rate added left to right."""
    probs = steady_state_point(config, limits, rates)
    n = config.n_channels
    total = 0.0
    for r in rates:
        total += float(r)
    return PointReport(
        per_class=tuple(float(probs[n_m:].sum()) for n_m in limits),
        utilization=float(np.arange(n + 1) @ probs) / n,
        offered_load=total / config.mu,
    )


def steady_state_full_width(config, limits, rates) -> np.ndarray:
    """P_0..P_N of every row of a P x M grid, as the library's grid solver
    took them before it narrowed to the guard band: every row's rates binned
    at their limits over all N+1 states, suffix sums from the top, a log of
    each row's reversed view, then cumsum, a max shift, exp and
    normalisation."""
    limits = np.asarray(limits, dtype=np.intp)
    rates = np.asarray(rates, dtype=float)
    points = len(limits)
    width = config.n_channels + 1
    cells = (limits + width * np.arange(points)[:, None]).ravel()
    at_limit = np.bincount(cells, weights=rates.ravel(), minlength=points * width)
    at_limit = at_limit.reshape(points, width)
    suffix = np.cumsum(at_limit[:, :0:-1], axis=1)
    steps = np.empty(suffix.shape)
    with np.errstate(divide="ignore"):
        for birth, out in zip(suffix, steps):
            np.log(birth[::-1], out=out)
    steps -= np.log(np.arange(1, width) * config.mu)
    logw = np.zeros((points, width))
    np.cumsum(steps, axis=1, out=logw[:, 1:])
    logw -= logw.max(axis=1, keepdims=True)
    probs = np.exp(logw, out=logw)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


def blocking_full_width(config, limits, rates):
    """Per-class blocking (P x M) and utilization (P) of every row from
    ``steady_state_full_width``: each class's tails one reduction per
    distinct limit of its column, one dot product per row."""
    limits = np.asarray(limits, dtype=np.intp)
    n = config.n_channels
    probs = steady_state_full_width(config, limits, rates)
    per_class = np.empty(limits.shape)
    for m, column in enumerate(limits.T):
        for n_m in set(column.tolist()):
            rows = column == n_m
            per_class[rows, m] = probs[rows, n_m:].sum(axis=1)
    occupancy = np.arange(n + 1, dtype=float)
    utilization = np.array([occupancy @ p for p in probs])
    utilization /= n
    return per_class, utilization


def erlang_b_point(servers: int, offered: float) -> float:
    """Erlang-B blocking of one load by the recurrence, in Python floats."""
    b = 1.0
    for k in range(1, servers + 1):
        b = offered * b / (k + offered * b)
    return b


def guard_birth_rate(limits, rates):
    """Birth-rate function for the guard-channel chain: classes with N_m > i."""

    def birth(i):
        return sum(lam for lam, n_m in zip(rates, limits) if n_m > i)

    return birth


def exact_partition(n: int, gamma: int, rates) -> tuple[list[int], list[int]]:
    """(y_m, N_m) by exact rational arithmetic; rates given as strings/Fractions."""
    fr = [Fraction(str(r)) for r in rates]
    total = sum(fr)
    y = [math.floor(sum(fr[m:]) / total * gamma) for m in range(len(fr))]
    limits = [n - gamma + ym for ym in y]
    return y, limits


def reserved_shares(rates, gamma: int) -> tuple[float, ...]:
    """Guard-pool share per class: X_m = (rate_m / total) * gamma, the total
    added left to right. Rejects a negative or non-finite rate, and an
    all-zero vector, which has no proportional split."""
    rates = tuple(float(r) for r in rates)
    for m, r in enumerate(rates, start=1):
        if not math.isfinite(r) or r < 0:
            raise ValueError(f"rate for class {m} must be finite and >= 0, got {r}")
    total = 0.0
    for r in rates:
        total += r
    if total <= 0:
        raise ValueError("all arrival rates are zero")
    return tuple(r / total * gamma for r in rates)


def guard_floors_reference(rates, gamma: int) -> tuple[int, ...]:
    """y_m by the arithmetic of the former per-class ``accessible_guard``:
    the validated shares of ``reserved_shares``, then for each class m on its
    own, floor(X_m + ... + X_M) after the same snap, the suffix added left
    to right."""
    shares = reserved_shares(rates, gamma)
    floors = []
    for m in range(len(shares)):
        suffix = 0.0
        for x in shares[m:]:
            suffix += x
        floors.append(math.floor(suffix + _FLOOR_SNAP))
    return tuple(floors)


class ArrivalWindowReference:
    """``traffic.ArrivalWindow`` one arrival at a time: the window is a
    deque, and its running sum adds each gap, then subtracts the gap it
    evicts, and is re-summed left to right every ``RESYNC_EVERY`` arrivals."""

    RESYNC_EVERY = 4096

    def __init__(self, class_index: int, capacity: int):
        self.class_index = class_index
        self.capacity = capacity
        self.gaps: deque[float] = deque()
        self.last_arrival: float | None = None
        self._gap_sum = 0.0
        self._records = 0

    def record_arrival(self, t: float) -> None:
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
        if self._records % self.RESYNC_EVERY == 0:
            total = 0.0
            for g in self.gaps:
                total += g
            self._gap_sum = total

    def estimate_rate(self) -> float:
        return len(self.gaps) / self._gap_sum

    @property
    def has_estimate(self) -> bool:
        return bool(self.gaps)


def write_csv_reference(path, header, rows) -> None:
    """A CSV as the CLI wrote it before it formatted rows in blocks: a
    ``csv.writer`` row per row, floats as ``.9g`` and other values by
    ``str``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.9g}" if isinstance(v, float) else str(v) for v in row])


def write_events_reference(path, per_rep_events) -> None:
    """``events.csv`` as the CLI wrote it when it held every event, by
    ``write_csv_reference``. ``per_rep_events`` holds one event list per
    replication."""
    write_csv_reference(
        path,
        ["replication", "time", "kind", "class", "decision", "occupied_after"],
        ((rep, *event) for rep, events in enumerate(per_rep_events) for event in events),
    )


def manifest_to_ini(manifest: str) -> str:
    """The config that ``manifest.txt``'s ``section.key=value`` lines
    describe, as INI text: the rerun the README promises reproduces the
    run. ``mode`` is not a config key, and an empty value is a key the run
    left unset."""
    sections: dict[str, list[str]] = {}
    for line in manifest.splitlines():
        name, _, value = line.partition("=")
        if name != "mode" and value:
            section, _, key = name.partition(".")
            sections.setdefault(section, []).append(f"{key} = {value}\n")
    return "".join(f"[{section}]\n" + "".join(lines) for section, lines in sections.items())


class EventLog:
    """A ``run_simulation`` sink that expands each batch of a run of
    ``m_count`` classes into (time, kind, class, decision, occupied) events,
    held in ``events``."""

    def __init__(self, m_count: int):
        self.fields = event_fields(m_count)
        self.events: list = []

    def __call__(self, time, code, occupied):
        self.events.extend((t, *self.fields[c], o)
                           for t, c, o in zip(time.tolist(), code.tolist(), occupied.tolist()))


def run_logged(scenario) -> SimMetrics:
    """``run_simulation`` with an ``EventLog`` sink, its events put in
    ``SimMetrics.events``."""
    log = EventLog(len(scenario.rates))
    metrics = run_simulation(scenario, on_events=log)
    metrics.events = log.events
    return metrics


def merge_reference(streams, classes, size):
    """``simulate._merge`` as it ran with a search of every class's times on
    every round: the next ``size`` arrivals of ``streams`` (class indices
    ``classes``), dropped from them, as (times, class indices, holding
    times, own-class window estimates or None)."""
    while True:
        low = min(streams, key=attrgetter("last"))
        horizon = low.last
        counts = [s.times.searchsorted(horizon, "right" if s.m <= low.m else "left")
                  for s in streams]
        if sum(counts) >= size:
            break
        if horizon == math.inf:
            raise ValueError("arrival times overflow to inf: a positive rate is below "
                             "the smallest whose mean gap 1/rate is finite")
        low.refill()
    times = np.concatenate([s.times[:k] for s, k in zip(streams, counts)])
    rows = times.argsort(kind="stable")[:size]
    cls = np.repeat(classes, counts)[rows]
    holds = np.concatenate([s.holds[:k] for s, k in zip(streams, counts)])[rows]
    own = (np.concatenate([s.estimates[:k] for s, k in zip(streams, counts)])[rows]
           if streams[0].window is not None else None)
    taken = np.bincount(cls, minlength=classes[-1] + 1)[classes].tolist()
    for s, k in zip(streams, taken):
        s.times, s.holds, s.estimates = s.times[k:], s.holds[k:], s.estimates[k:]
    return times[rows], cls, holds, own


def admit_reference(rows, departures, occupied, area, last_t, blocked):
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


def block_events_reference(times, cls, departs, blocked, pending, occupied):
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


def run_simulation_reference(scenario, record_events: bool = False) -> SimMetrics:
    """``simulate.run_simulation`` as a plain event loop, holding every event
    in ``SimMetrics.events`` if ``record_events`` is set.

    One heap holds arrivals and departures as (time, kind_rank, class, seq):
    at equal times a departure (rank 0) frees its channel before an arrival
    (rank 1) is tested, and arrivals go by class index. Each arrival pushes
    its class's next arrival as ``t + draw``, drawn one value at a time from
    the class's own generator. Under the dynamic policy every arrival calls
    ``compute_partition`` on the whole rate vector: the configured rates
    until every class with a positive configured rate has a gap in its
    window, then the window estimates, 0.0 for a class that never arrives.
    """
    config = scenario.config
    true_rates = scenario.rates
    m_count = len(true_rates)
    n = config.n_channels
    estimating = scenario.policy == POLICY_DYNAMIC and not scenario.bypass_estimator

    seeds = np.random.SeedSequence(scenario.seed).spawn(2 * m_count)
    arrival_rngs = [np.random.default_rng(seeds[m]) for m in range(m_count)]
    holding_rngs = [np.random.default_rng(seeds[m_count + m]) for m in range(m_count)]
    windows = [ArrivalWindowReference(m + 1, config.window_n) for m in range(m_count)]

    def draw(rng, mean):
        return float(rng.exponential(mean))

    cold_rates = true_rates if sum(true_rates) > 0 else (1.0,) * m_count
    if scenario.policy == POLICY_DYNAMIC:
        part = compute_partition(config, cold_rates)
        limits, access = part.limits, part.guard_access
    else:
        limits, access = (n,) * m_count, (config.guard,) * m_count

    heap: list = []
    seq = 0
    for m in range(m_count):
        if true_rates[m] > 0:
            heapq.heappush(heap, (draw(arrival_rngs[m], 1.0 / true_rates[m]), 1, m + 1, seq))
            seq += 1

    warmup_count = int(scenario.warmup * scenario.arrivals)
    arrivals_seen = occupied = 0
    arr_counts = [0] * m_count
    block_counts = [0] * m_count
    in_measurement = warmup_count == 0
    measure_start = area = last_t = 0.0
    partition_trace: list = []
    estimator_trace: list = []
    events: list | None = [] if record_events else None

    while heap and arrivals_seen < scenario.arrivals:
        t, kind, cls, _ = heapq.heappop(heap)
        if in_measurement:
            area += occupied * (t - last_t)
        last_t = t
        if kind == 0:
            occupied -= 1
            if events is not None:
                events.append((t, "departure", cls, "release", occupied))
            continue

        m = cls - 1
        arrivals_seen += 1
        heapq.heappush(heap, (t + draw(arrival_rngs[m], 1.0 / true_rates[m]), 1, cls, seq))
        seq += 1
        hold = draw(holding_rngs[m], 1.0 / config.mu)

        if estimating:
            windows[m].record_arrival(t)
            ready = all(w.has_estimate for w, r in zip(windows, true_rates) if r > 0)
            if ready:
                rates_vec = tuple(w.estimate_rate() if w.has_estimate else 0.0 for w in windows)
            else:
                rates_vec = tuple(cold_rates)
            part = compute_partition(config, rates_vec)
            limits, access = part.limits, part.guard_access

        accepted = occupied < limits[m]
        if accepted:
            occupied += 1
            heapq.heappush(heap, (t + hold, 0, cls, seq))
            seq += 1

        if arrivals_seen > warmup_count:
            if not in_measurement:
                in_measurement = True
                measure_start = t
            arr_counts[m] += 1
            if not accepted:
                block_counts[m] += 1

        if arrivals_seen % scenario.trace_stride == 0:
            partition_trace.append((t, *access))
            if estimating:
                estimator_trace.append((t, *rates_vec))
        if events is not None:
            events.append((t, "arrival", cls, "accept" if accepted else "block", occupied))

    duration = max(last_t - measure_start, 0.0)
    return SimMetrics(
        per_class_arrivals=tuple(arr_counts),
        per_class_blocks=tuple(block_counts),
        empirical_blocking=tuple(
            b / a if a else 0.0 for a, b in zip(arr_counts, block_counts)
        ),
        utilization=area / (duration * n) if duration > 0 else 0.0,
        duration=duration,
        partition_trace=partition_trace,
        estimator_trace=estimator_trace,
        events=events,
    )


def erlang_b_direct(servers: int, offered: float) -> float:
    """Erlang B from the definition, term sums in log domain."""
    logs = [k * math.log(offered) - math.lgamma(k + 1) if offered > 0 else (0.0 if k == 0 else -math.inf)
            for k in range(servers + 1)]
    top = max(logs)
    weights = [math.exp(l - top) for l in logs]
    return weights[-1] / sum(weights)


def _xlogy(x: float, y: float) -> float:
    # 0 * log(0) == 0 by convention; positive exponent on a zero base kills the term
    if x == 0:
        return 0.0
    if y == 0:
        return -math.inf
    return x * math.log(y)


def _closed_form_log_weights(config, partition, rates):
    """Log unnormalized P_i per the printed closed forms, in log domain.

    For i <= N_M the weight is (total/mu)^i / i!. For N_j < i <= N_{j-1} it is
    total^{N_M} * prefix_{j-1}^{i-N_j} * prod_{k=j}^{M-1} prefix_k^{N_k-N_{k+1}}
    over mu^i * i!, where prefix_k is the rate sum of classes 1..k.
    """
    rates = tuple(float(r) for r in rates)
    limits = partition.limits
    n = config.n_channels
    mu = config.mu
    m_count = len(rates)
    total = sum(rates)
    prefix = [sum(rates[:k]) for k in range(m_count + 1)]  # prefix[k] = rates of 1..k
    log_mu = math.log(mu)
    n_last = limits[-1]

    logw = np.full(n + 1, -math.inf)
    logw[0] = 0.0
    for i in range(1, n_last + 1):
        logw[i] = _xlogy(i, total) - i * log_mu - math.lgamma(i + 1)
    for j in range(m_count, 1, -1):
        lo, hi = limits[j - 1], limits[j - 2]  # N_j, N_{j-1}
        tail = sum(
            _xlogy(limits[k - 1] - limits[k], prefix[k]) for k in range(j, m_count)
        )
        for i in range(lo + 1, hi + 1):
            logw[i] = (
                _xlogy(n_last, total)
                + _xlogy(i - lo, prefix[j - 1])
                + tail
                - i * log_mu
                - math.lgamma(i + 1)
            )
    return logw


def closed_form_blocking(config, partition, rates, tol: float = 1e-9) -> PointReport:
    """Blocking from the literal closed forms, cross-checked against the
    library's ``blocking_probabilities``.

    Raises TranscriptionDiscrepancy if any B_m differs from the solver's
    result by more than ``tol``.
    """
    rates = tuple(float(r) for r in rates)
    if sum(rates) == 0:
        probs = np.zeros(config.n_channels + 1)
        probs[0] = 1.0
    else:
        logw = _closed_form_log_weights(config, partition, rates)
        logw -= logw.max()
        probs = np.exp(logw)
        probs /= probs.sum()
    n = config.n_channels
    per_class = tuple(float(probs[n_m:].sum()) for n_m in partition.limits)
    utilization = float(np.arange(n + 1) @ probs) / n

    reference = blocking_probabilities(config, [partition.limits], [rates]).per_class[0]
    if any(abs(a - b) > tol for a, b in zip(per_class, reference)):
        raise TranscriptionDiscrepancy(per_class, reference)
    return PointReport(
        per_class=per_class,
        utilization=utilization,
        offered_load=sum(rates) / config.mu,
    )
