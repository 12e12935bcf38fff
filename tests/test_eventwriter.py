"""The event writer's reader, ``eventwriter._write_batches``, on a plain pipe:
the pickles ``_send_batch`` sends, whole or cut short."""

import functools
import os
import pickle
import pickletools
import threading

import numpy as np
import pytest

from qosguard import eventwriter

BATCHES = [
    (0, [0.5, 1.25, 2.0], [0, 4, 2], [1, 2, 1]),
    (1, [0.75], [3], [1]),
    (0, [], [], []),              # a batch of no rows: three empty columns
    (0, [3.5, 4.0], [1, 5], [1, 0]),
]

# where a batch of n bytes is cut: after its first byte, after the protocol
# opcode and its argument (pickle.load reads the next opcode there, and an
# end there is an EOFError), in the middle and one byte short
CUTS = {"1-byte": lambda n: 1, "after-protocol": lambda n: 2,
        "middle": lambda n: n // 2, "1-short": lambda n: n - 1}


def as_columns(batch):
    """``batch`` as ``run_simulation`` gives it: float times, int codes and
    int occupancies."""
    rep, time, code, occupied = batch
    return (rep, np.array(time, dtype=float), np.array(code, dtype=np.intp),
            np.array(occupied, dtype=np.intp))


def piped(fill, drain):
    """Run ``fill(fd)`` on a thread with a pipe's write end, closed after
    it, while ``drain(fd)`` reads the read end here, so that neither waits
    on a full pipe; return what ``drain`` returns."""
    read_end, write_end = os.pipe()

    def feed():
        try:
            fill(write_end)
        finally:
            os.close(write_end)

    feeder = threading.Thread(target=feed)
    feeder.start()
    try:
        return drain(read_end)
    finally:
        feeder.join(timeout=60)
        assert not feeder.is_alive(), "the thread filling the pipe is stuck"


def read_all(fd) -> bytes:
    with open(fd, "rb") as pipe:
        return pipe.read()


def sent_bytes(batches) -> bytes:
    """The bytes ``_send_batch`` writes for ``batches``, in order."""
    def fill(fd):
        for batch in batches:
            eventwriter._send_batch(fd, *as_columns(batch))

    return piped(fill, read_all)


def read_batches(data: bytes):
    """Run ``_write_batches`` on a pipe that holds ``data`` and whose write
    end is then closed; return the batches its ``write`` got, in order,
    each as its replication and its columns."""
    got = []

    def write(rep, *columns):
        got.append((rep, *[column.tolist() for column in columns]))

    piped(functools.partial(eventwriter._send, data=data),
          functools.partial(eventwriter._write_batches, write=write))
    return got


def test_clean_end_returns_every_batch():
    assert read_batches(sent_bytes(BATCHES)) == BATCHES


def test_empty_stream_returns():
    assert read_batches(b"") == []


@pytest.mark.parametrize("whole", [0, 1], ids=["first-batch", "after-a-whole-batch"])
@pytest.mark.parametrize("cut", CUTS.values(), ids=CUTS)
def test_cut_batch_raises(whole, cut):
    before = sent_bytes(BATCHES[:whole])
    batch = sent_bytes(BATCHES[whole:whole + 1])
    with pytest.raises(pickle.UnpicklingError):
        read_batches(before + batch[:cut(len(batch))])


def test_cut_at_every_opcode_boundary_of_a_large_batch_raises():
    # columns past pickle's 64 KiB frame go unframed, so the batch has
    # opcode boundaries outside any frame, where pickle.load reads EOFError
    batch = sent_bytes([(0, np.arange(20000) / 8, np.arange(20000) % 9, np.arange(20000) % 5)])
    boundaries = [pos for _, _, pos in pickletools.genops(batch)][1:]
    assert len(boundaries) > 30
    for cut in boundaries:
        with pytest.raises(pickle.UnpicklingError):
            read_batches(batch[:cut])
