"""The simulator's admission stage: it decides each block of arrivals that
``simulate.run_simulation`` hands it, orders the block's events and sums
the occupancy integral, with the float operations of a loop that takes one
event at a time. It has a module of its own so that compiling
``simulate`` does not compile it too: with bytecode writing off, the
largest module compiled sets the memory a launch peaks at.
"""

from __future__ import annotations

import heapq
import math

import numpy as np


class Admission:
    """The admission stage: it decides a block of arrivals at a time and
    carries from block to block the pending departures, one per occupied
    channel (times ``dt[:pending]``, class indices ``dm[:pending]``), the
    occupancy integral ``area`` and the last event time ``last_t``.

    A call admitted at row j with departure time d leaves just before the
    first row i >= j + 1 whose time is >= d, its slot; a carried call's slot
    is the first row whose time is >= d. With every row admitted, the
    occupancy before row i would be ``pending + i - (slots <= i)``, an upper
    bound: a row whose bound is below its limit is admitted, with no Python
    step. The other rows run in order, and row k is blocked iff its limit
    less its bound, plus the blocked rows it still counts (a heap of their
    slots > k), is <= 0. The events go by (slot, time, class), as a heap of
    the pending (time, class) pops them before each arrival; a slot never
    falls as the time rises, so one ``lexsort`` by time, then slot and class
    (below ``m_count``), gives that order, with the blocked rows last: their
    times are set to inf. A block holds at most ``block`` rows. Each event adds the occupancy before it times the
    time since the last event to ``area``, in one left-to-right ``cumsum``.
    """

    def __init__(self, n: int, m_count: int, block: int):
        # room for N carried departures, a block's rows and their departures
        self.m_count, self.calls, self.events = m_count, n + block + 1, n + 2 * block + 1
        self.span = np.arange(self.calls)
        self.dt, self.dm = np.empty(self.calls), np.empty(self.calls, dtype=np.intp)
        self.pending, self.area, self.last_t = 0, 0.0, 0.0

    def admit(self, times, cls, departs, limits, warm: int, sink=None) -> list[int]:
        """Admit a block's rows (times, class indices, departure times and
        limits, as arrays) and return its blocked rows in order. After row
        ``warm``'s arrival, if ``warm`` >= 0, the area restarts at 0.0. A
        ``sink`` gets the block's events (``run_simulation``)."""
        size, carried = len(times), self.pending
        end = carried + size
        # the block's buffers are of the same sizes in every block, so each
        # reuses the last one's memory, and none is held while the feed
        # builds the next block
        st, time, occupied = (np.empty(self.events) for _ in range(3))
        sm, at = (np.empty(self.calls, dtype=np.intp) for _ in range(2))
        admitted, arrival = np.ones(self.calls), np.ones(self.events, dtype=bool)
        dt, dm = self.dt[:end], self.dm[:end]
        dt[carried:], dm[carried:] = departs, cls
        slot = times.searchsorted(dt, "left")
        np.maximum(slot[carried:], self.span[1:size + 1], out=slot[carried:])
        counts = np.bincount(slot, minlength=size + 1)
        # each row's limit less its bound, less 1, capped at 0: nonzero for
        # the rows that may be blocked (a comparison ufunc's code would add
        # to the memory of every run)
        room = counts[:size]
        room.cumsum(out=room)
        room += limits
        room -= self.span[carried + 1:end + 1]
        np.minimum(room, 0, out=room)
        rows = np.flatnonzero(room)
        blocked, counted = [], []
        for row, spare in zip(rows.tolist(), room[rows].tolist()):
            while counted and counted[0] <= row:
                heapq.heappop(counted)
            if spare + len(counted) < 0:
                blocked.append(row)
                heapq.heappush(counted, int(slot[carried + row]))
                dt[carried + row], slot[carried + row] = math.inf, size + 1
                admitted[row] = 0.0
        # the counted slots equal to size are blocked rows'
        self.pending = int(counts[size]) - counted.count(size)
        gone = end - len(blocked) - self.pending    # the departures logged here
        key = np.add(np.multiply(slot, self.m_count, out=at[:end]), dm, out=at[:end])
        order = np.lexsort((key, dt))
        # mode clip: raise would copy through a buffer; the indices are in range
        np.take(dt, order, out=st[:end], mode="clip")
        np.take(dm, order, out=sm[:end], mode="clip")
        at = np.take(slot, order[:gone], out=at[:gone], mode="clip")
        kept = slice(gone, gone + self.pending)
        self.dt[:self.pending], self.dm[:self.pending] = st[kept], sm[kept]
        at += self.span[:gone]                      # each logged departure's event
        events = size + gone
        arrival, time, occupied = arrival[:events], time[:events + 1], occupied[:events + 1]
        arrival[at] = False
        time[0], occupied[0] = self.last_t, carried
        time[1:][arrival], time[1:][at] = times, st[:gone]
        occupied[1:][arrival], occupied[1:][at] = admitted[:size], -1.0
        occupied.cumsum(out=occupied)
        terms = st[:events + 1]                     # the sorted times are used up
        np.subtract(time[1:], time[:-1], out=terms[1:])
        terms[1:] *= occupied[:-1]
        terms[0] = self.area
        restart = 0
        if warm >= 0:
            restart = int(np.flatnonzero(arrival)[warm]) + 1
            terms[restart] = 0.0
        np.cumsum(terms[restart:], out=terms[restart:])
        self.area, self.last_t = float(terms[-1]), float(times[-1])
        if sink:
            code = np.empty(events, dtype=np.intp)
            code[arrival] = 3 * cls + 1 - admitted[:size].astype(np.intp)
            code[at] = 3 * sm[:gone] + 2
            sink(time[1:], code, occupied[1:].astype(np.intp))
        return blocked
