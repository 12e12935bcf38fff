"""The event writer's reader, ``eventwriter._write_batches``, on a plain pipe:
the bytes ``_send_batch`` sends, whole or cut short."""

import os

import numpy as np
import pytest

from qosguard import eventwriter

BATCHES = [
    (0, [0.5, 1.25, 2.0], [0, 4, 2], [1, 2, 1]),
    (1, [0.75], [3], [1]),
    (0, [], [], []),              # a batch of no rows: three empty columns
    (0, [3.5, 4.0], [1, 5], [1, 0]),
]


def sent_bytes(batches) -> bytes:
    """The bytes ``_send_batch`` writes for ``batches``, in order."""
    read_end, write_end = os.pipe()
    try:
        for rep, *columns in batches:
            eventwriter._send_batch(write_end, rep, *columns)
    finally:
        os.close(write_end)
    with open(read_end, "rb") as pipe:
        return pipe.read()


def read_batches(data: bytes):
    """Run ``_write_batches`` on a pipe that holds ``data`` and whose write
    end is closed; return what each replication's sink got, and the order
    in which the sinks were made."""
    read_end, write_end = os.pipe()
    os.write(write_end, data)     # a few hundred bytes: fits the pipe
    os.close(write_end)
    got, made = {}, []

    def sink_for(rep):
        made.append(rep)
        return lambda *columns: got.setdefault(rep, []).append(
            [column.tolist() for column in columns])

    eventwriter._write_batches(read_end, sink_for)
    return got, made


def test_clean_end_returns_every_batch():
    got, made = read_batches(sent_bytes(BATCHES))
    assert made == [0, 1]
    expected = {}
    for rep, *columns in BATCHES:
        expected.setdefault(rep, []).append([list(column) for column in columns])
    assert got == expected


def test_empty_stream_returns():
    assert read_batches(b"") == ({}, [])


def test_head_cut_raises():
    # 8 of a head's 16 bytes
    with pytest.raises(EOFError):
        read_batches(sent_bytes(BATCHES[:1])[:8])


@pytest.mark.parametrize("cut", [16, 16 + 8, 16 + 24 + 12])
def test_column_cut_raises(cut):
    # after the head, inside the time column, inside the code column
    data = sent_bytes(BATCHES[:1])
    assert cut < len(data)
    with pytest.raises(EOFError):
        read_batches(data[:cut])


def test_cut_after_a_whole_batch_raises():
    first = sent_bytes(BATCHES[:1])
    with pytest.raises(EOFError):
        read_batches(first + sent_bytes(BATCHES[1:2])[:20])

