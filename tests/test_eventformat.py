"""The event log's numpy formatter against ``%``: ``eventwriter._time_cells``
writes each time of a batch as ``'%.9g' %`` would, or hands the whole
batch back to the ``%`` way, and ``eventwriter.event_sink`` writes the same
bytes as one ``%.9g`` and the event's fields per line, whichever way each
batch goes.
"""

import io
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qosguard import eventwriter
from qosguard.simulate import event_fields

# the float t * 10**(9-k) is off the exact product by at most PRODUCT_ERROR,
# and a batch goes the % way when one of these floats is within MARGIN of a
# half
MARGIN = Fraction(1, 10**6)
PRODUCT_ERROR = Fraction(1, 2**24)


def percent(t: float) -> bytes:
    return b"%.9g" % t


def nudged(value: float, ulps: int) -> float:
    """``value`` moved ``ulps`` floats up (or down, for ulps < 0)."""
    toward = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        value = math.nextafter(value, toward)
    return value


def tie(k: int, digits: int) -> float:
    """The float nearest the half after the 9 significant digits ``digits``
    (10**8 to 10**9 - 1) of a time with k digits before the point."""
    return float((Fraction(digits) + Fraction(1, 2)) / 10 ** (9 - k))


def fate(t: float) -> str:
    """How ``_time_cells`` must treat a batch holding ``t``: "percent" if
    the cells could differ from ``%.9g`` (t outside [1, 1e8), a round-up to
    10**k, or a product too near a half), "cells" if they cannot, and
    "either" for a product within 2**-24 of the 1e-6 margin."""
    if not 1 <= t < 1e8:
        return "percent"
    exact = Fraction(t) * 10 ** (9 - len(str(int(t))))
    if round(exact) >= 10**9:
        return "percent"
    from_half = abs(exact - math.floor(exact) - Fraction(1, 2))
    if from_half + PRODUCT_ERROR < MARGIN:
        return "percent"
    if from_half - PRODUCT_ERROR > MARGIN:
        return "cells"
    return "either"


ORDINARY = st.floats(1.0, 1e8, exclude_max=True) | st.floats(0.0, 8.0).map(lambda e: 10.0**e)
POWERS = st.builds(lambda e, ulps: nudged(10.0**e, ulps), st.integers(0, 8), st.integers(-6, 6))
# near-ties from 0 to ~100 ulps off the half, across the 1e-6 margin
NEAR_TIES = st.builds(lambda k, digits, ulps: nudged(tie(k, digits), ulps),
                      st.integers(1, 8), st.integers(10**8, 10**9 - 1), st.integers(-100, 100))
# products that round up to 10**9 and to 10**9 - 1
ROUND_UPS = st.builds(lambda k, ulps: nudged(tie(k, 10**9 - 1), ulps),
                      st.integers(1, 8), st.integers(-3, 3))
OUT_OF_RANGE = (st.just(0.0) | st.floats(0.0, 1.0, exclude_max=True)
                | st.floats(1e8, 1e300) | st.just(math.nextafter(1.0, 0.0)))
TIMES = ORDINARY | POWERS | NEAR_TIES | ROUND_UPS | OUT_OF_RANGE
IN_RANGE = ORDINARY | POWERS | NEAR_TIES | ROUND_UPS


def assert_time_cells(times) -> None:
    """``_time_cells`` on ``times``: its cells are ``%.9g``'s bytes, and
    it goes the ``%`` way exactly when ``fate`` says it must."""
    cells = eventwriter._time_cells(np.array(times, dtype=float))
    fates = {fate(t) for t in times}
    if "percent" in fates:
        assert cells is None, times
        return
    if fates == {"cells"}:
        assert cells is not None, times
    if cells is not None:
        assert cells.shape == (len(times), 3)
        got = [row.tobytes().replace(b"\0", b"") for row in cells]
        assert got == [percent(t) for t in times]


@given(st.lists(TIMES, min_size=1, max_size=12))
def test_time_cells_match_percent(times):
    assert_time_cells(times)


@settings(max_examples=300)
@given(st.lists(IN_RANGE, min_size=1, max_size=12))
def test_in_range_time_cells_match_percent(times):
    assert_time_cells(times)


# the tie nearest each end of each digit count, and one in the middle
TIE_DIGITS = [10**8, 10**8 + 1, 543212345, 10**9 - 2, 10**9 - 1]


@pytest.mark.parametrize("k", range(1, 9))
def test_every_time_near_a_tie_matches_percent(k):
    # every float within 100 ulps of each tie, one batch each, so that a
    # batch's fate rests on that time alone
    for digits in TIE_DIGITS:
        for ulps in range(-100, 101):
            assert_time_cells([nudged(tie(k, digits), ulps)])


@pytest.mark.parametrize("k", range(1, 9))
def test_one_round_up_sends_the_batch_the_percent_way(k):
    # a round-up to 10**k first, in the middle and last among ordinary times
    up = nudged(10.0**k, -1)
    assert fate(up) == "percent"
    ordinary = [1.5, 1234.5678, 99.25, 7777777.7]
    for at in (0, 2, len(ordinary)):
        batch = ordinary[:at] + [up] + ordinary[at:]
        assert eventwriter._time_cells(np.array(batch)) is None
    assert eventwriter._time_cells(np.array(ordinary)) is not None


def test_trailing_zeros_and_the_point_are_cut():
    times = [1.0, 10.0, 100.0, 1000.0, 12345678.0, 1.5, 1.05, 1.005, 1.0005, 10.5, 120.25,
             1234.5, 1000.001, 1200000.5, 3.14159265, 99999999.0, 1.00000001, 1e7 + 0.5]
    assert_time_cells(times)
    assert eventwriter._time_cells(np.array(times)) is not None


FIELDS = event_fields(3)


def reference_lines(rep, time, code, occupied) -> bytes:
    return b"".join(b"%d,%s,%s,%d,%s,%d\r\n" % (rep, percent(t), FIELDS[c][0].encode(),
                                                FIELDS[c][1], FIELDS[c][2].encode(), held)
                    for t, c, held in zip(time.tolist(), code.tolist(), occupied.tolist()))


@st.composite
def batches(draw):
    """A batch of events: a replication, a time column that ``_time_cells``
    takes or not, codes and occupancies up to a drawn reach."""
    rep = draw(st.sampled_from([0, 9, 10, 12345]))
    rows = draw(st.sampled_from([1, eventwriter._MIN_ROWS - 1, eventwriter._MIN_ROWS, 700]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    time = np.sort(10.0 ** rng.uniform(0, 8, rows))
    for _ in range(draw(st.integers(0, 2))):
        time[rng.integers(rows)] = draw(TIMES)
    reach = draw(st.sampled_from([1, 3, 40, 300]))
    code = rng.integers(0, len(FIELDS), rows)
    occupied = rng.integers(0, reach, rows)
    occupied[-1] = reach - 1
    return rep, time, code, occupied


@settings(max_examples=60, deadline=None)
@given(st.lists(batches(), min_size=1, max_size=5))
def test_sink_matches_percent(drawn):
    fh = io.BytesIO()
    write = eventwriter.event_sink(fh, FIELDS)
    for batch in drawn:
        write(*batch)
    assert fh.getvalue() == b"".join(reference_lines(*batch) for batch in drawn)


def test_short_batches_go_the_percent_way(monkeypatch):
    calls = []
    time_cells = eventwriter._time_cells

    def spy(time):
        calls.append(len(time))
        return time_cells(time)

    monkeypatch.setattr(eventwriter, "_time_cells", spy)
    fh = io.BytesIO()
    write = eventwriter.event_sink(fh, FIELDS)
    expected = b""
    # the occupancy reach grows from batch to batch, and so does the table
    for rows, reach in [(1, 2), (eventwriter._MIN_ROWS - 1, 5), (eventwriter._MIN_ROWS, 9),
                        (3000, 130)]:
        time = np.linspace(2.0, 5e4, rows)
        code = np.arange(rows) % len(FIELDS)
        occupied = np.arange(rows) % reach
        write(12345, time, code, occupied)
        expected += reference_lines(12345, time, code, occupied)
    assert calls == [eventwriter._MIN_ROWS, 3000]
    assert fh.getvalue() == expected


def test_runs_without_events_do_not_load_the_formatter(tmp_path):
    # the formatter's module is compiled and mapped only by a run that
    # writes events
    cfg = tmp_path / "sim.ini"
    cfg.write_text("[system]\nchannels = 20\nguard = 4\n[traffic]\nrates = 0.3, 0.4\n"
                   "[simulation]\narrivals = 3000\n[sweep]\nlambda_total = 0.5, 0.7\n")
    script = ("import sys; from qosguard.cli import main\n"
              "for mode in sys.argv[2:]:\n"
              "    assert main([mode, '--config', sys.argv[1], '--out', mode]) == 0\n"
              "print('qosguard.eventwriter' in sys.modules)")
    src = str(Path(eventwriter.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script, str(cfg), "simulate", "analyze"],
                          env=dict(os.environ, PYTHONPATH=src), cwd=tmp_path,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
