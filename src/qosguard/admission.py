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


def search_slots(times, keys, order, out) -> None:
    """Write to ``out`` each key's first index in the sorted ``times`` whose
    time is >= the key, ``times.searchsorted(keys, "left")``. ``order``
    sorts ``keys``, equal keys in any order: searched in that order, each
    key's search starts where the last one's ended."""
    out[order] = times.searchsorted(keys[order], "left")


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
    falls as the time rises, so the admitted departures sorted by time give
    that order once the ones due at equal times go by slot, then class
    (below ``m_count``). One sort by time of all the block's departures
    serves both: its order finds the slots, and without the blocked rows'
    departures it is the event order. A block holds at most ``block`` rows.
    Each event adds the occupancy before it times the time since the last
    event to ``area``, in one left-to-right ``cumsum``.
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
        # builds the next block; the event buffers come after the candidate
        # loop, whose lists of ints would add to them
        admitted, slot = np.ones(self.calls), np.empty(self.calls, dtype=np.intp)
        dt, dm = self.dt[:end], self.dm[:end]
        dt[carried:], dm[carried:] = departs, cls
        # the departures in time order; stable, the merge stage's sort: the
        # default sort's code would add ~0.2 MiB to the memory of every run
        order, slot = dt.argsort(kind="stable"), slot[:end]
        search_slots(times, dt, order, slot)
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
        # the block's rows' slots and decisions
        ahead, accepted = slot[carried:], admitted[carried:end]
        blocked, counted = [], []
        pop, push, block = heapq.heappop, heapq.heappush, blocked.append
        # the blocked rows still counted, and the earliest of their slots
        active, expiry = 0, math.inf
        for row, spare in zip(rows.tolist(), room[rows].tolist()):
            while expiry <= row:
                pop(counted)
                active -= 1
                expiry = counted[0] if counted else math.inf
            if spare + active < 0:
                block(row)
                push(counted, ahead.item(row))
                active += 1
                expiry = counted[0]
                accepted[row] = 0.0
        # the counted slots equal to size are blocked rows'
        self.pending = int(counts[size]) - counted.count(size)
        del counts, room, rows
        kept = end - len(blocked)                   # the admitted departures
        gone = kept - self.pending                  # the departures logged here
        if blocked:
            order = order[np.flatnonzero(np.take(admitted, order))]
        st, time, occupied = (np.empty(self.events) for _ in range(3))
        sm, at = (np.empty(self.calls, dtype=np.intp) for _ in range(2))
        arrival = np.ones(self.events, dtype=bool)
        # mode clip: raise would copy through a buffer; the indices are in range
        due = np.take(dt, order, out=st[:kept], mode="clip")
        # departures due at equal times go by slot, then class; two due at
        # inf leave a nan gap, not a tie, but neither is ever logged
        with np.errstate(invalid="ignore"):
            gaps = np.subtract(due[1:], due[:-1], out=time[:max(kept - 1, 0)])
        if np.count_nonzero(gaps) < len(gaps):
            key = np.add(np.multiply(slot[order], self.m_count, out=at[:kept]), dm[order],
                         out=at[:kept])
            order = order[np.lexsort((key, due))]
            np.take(dt, order, out=due, mode="clip")
        np.take(dm, order, out=sm[:kept], mode="clip")
        at = np.take(slot, order[:gone], out=at[:gone], mode="clip")
        self.dt[:self.pending], self.dm[:self.pending] = st[gone:kept], sm[gone:kept]
        del order, slot, ahead                      # freed before the event columns
        at += self.span[:gone]                      # each logged departure's event
        events = size + gone
        arrival, time, occupied = arrival[:events], time[:events + 1], occupied[:events + 1]
        arrival[at] = False
        time[0], occupied[0] = self.last_t, carried
        time[1:][arrival], time[1:][at] = times, st[:gone]
        occupied[1:][arrival], occupied[1:][at] = accepted, -1.0
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
            arrived = 3 * cls
            arrived += 1
            arrived -= accepted.astype(np.intp)
            code[arrival] = arrived
            del arrived
            departed = np.multiply(sm[:gone], 3, out=sm[:gone])
            departed += 2
            code[at] = departed
            sink(time[1:], code, occupied[1:].astype(np.intp))
        return blocked
