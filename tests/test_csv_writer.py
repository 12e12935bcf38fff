"""The CLI's CSV writer formats rows in blocks, one ``%`` operation per block
of at most ``cli._ROW_BLOCK`` rows. These tests hold every CSV that each
mode writes, and arbitrary columns of one value type each, to the bytes of
the ``csv.writer`` reference in ``oracles.py``.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import write_csv_reference
from qosguard import cli
from qosguard.cli import main

SYSTEM = "[system]\nchannels = 20\nguard = 4\nholding_time = 1\nwindow = 30\n"

MODES = {
    "analyze-lambda-total": (
        "analyze",
        "[system]\nchannels = 100\nguard = 10\nholding_time = 120\n"
        "[traffic]\nratio = 3, 4, 2, 1\n[sweep]\nlambda_total = 0, 0.5, 0.667, 0.833, 1.5\n",
    ),
    "analyze-lambda-1": (
        "analyze",
        "[system]\nchannels = 100\nguard = 10\nholding_time = 120\n"
        "[traffic]\nrates = 0.3, 0.4, 0.0, 0.1\n[sweep]\nlambda_1 = 0, 0.25, 1.5\n",
    ),
    "simulate-events": (
        "simulate",
        SYSTEM + "[traffic]\nrates = 9, 12, 6, 3\n"
        "[simulation]\narrivals = 5000\nreplications = 2\ntrace_stride = 50\n"
        "events = true\nseed = 2\n",
    ),
    "compare": (
        "compare",
        SYSTEM + "[traffic]\nrates = 9, 12, 6, 3\n"
        "[simulation]\narrivals = 3000\nreplications = 2\nseed = 3\n",
    ),
    "sweep": (
        "sweep",
        SYSTEM + "[traffic]\nrates = 3, 4, 2\n[sweep]\nlambda_1 = 0, 2, 4\n"
        "[simulation]\narrivals = 2000\nreplications = 2\nseed = 4\n",
    ),
    "vlc-link": ("vlc-link", "[vlc]\nhalf_power_angle = 30\ndistance = 1.25\n"),
}


@pytest.mark.parametrize("name", sorted(MODES))
def test_every_csv_matches_reference_writer(tmp_path, monkeypatch, name):
    mode, text = MODES[name]
    written = []
    write_csv = cli._write_csv

    def recording(path, header, rows):
        rows = list(rows)
        written.append((path, header, rows))
        write_csv(path, header, rows)

    monkeypatch.setattr(cli, "_write_csv", recording)
    cfg = tmp_path / "mode.ini"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main([mode, "--config", str(cfg), "--out", str(out)]) == 0
    # events.csv goes through the event sink; test_events.py compares it
    assert sorted(path.name for path, _, _ in written) == sorted(
        path.name for path in out.glob("*.csv") if path.name != "events.csv"
    )
    reference = tmp_path / "reference.csv"
    for path, header, rows in written:
        assert rows
        write_csv_reference(reference, header, rows)
        assert path.read_bytes() == reference.read_bytes(), path.name


# the writer does not quote: no field holds a comma, a quote or a line break
_FIELD_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters=',"\r\n'), min_size=1
)
_FLOATS = st.floats() | st.sampled_from(
    [math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, -2.2250738585072e-308]
)
COLUMNS = {
    "float": _FLOATS,
    "np.float64": _FLOATS.map(np.float64),
    "int": st.integers(min_value=-(10**12), max_value=10**12)
    | st.integers(min_value=10**9, max_value=10**30),
    "str": _FIELD_TEXT,
}


@st.composite
def tables(draw):
    """(header, rows): 0, 1, a few or more than ``_ROW_BLOCK`` rows, each
    column of one value type. The rows repeat a small drawn pool."""
    types = draw(st.lists(st.sampled_from(sorted(COLUMNS)), min_size=1, max_size=6))
    pool = draw(st.lists(st.tuples(*(COLUMNS[t] for t in types)), min_size=1, max_size=8))
    count = draw(st.sampled_from([0, 1, len(pool), cli._ROW_BLOCK + 1, 2 * cli._ROW_BLOCK + 3]))
    header = [f"{t}_{i}" for i, t in enumerate(types)]
    return header, [pool[i % len(pool)] for i in range(count)]


@given(table=tables())
def test_single_type_columns_match_reference_writer(tmp_path_factory, table):
    header, rows = table
    folder = tmp_path_factory.getbasetemp()
    got, want = folder / "got.csv", folder / "want.csv"
    cli._write_csv(got, header, iter(rows))
    write_csv_reference(want, header, rows)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("count", [0, 1, cli._ROW_BLOCK, cli._ROW_BLOCK + 1, 3 * cli._ROW_BLOCK])
def test_rows_are_written_in_blocks(count):
    # the text of at most one block is held at a time
    writes = []
    cli._write_rows(writes.append, "%s,%.9g\r\n", ((i, i / 7) for i in range(count)))
    assert len(writes) == -(-count // cli._ROW_BLOCK)
    assert all(text.count("\r\n") <= cli._ROW_BLOCK for text in writes)
    assert "".join(writes) == "".join(f"{i},{i / 7:.9g}\r\n" for i in range(count))
