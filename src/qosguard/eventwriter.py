"""The event log's writer process: ``forked_sinks`` forks a process that
formats and writes the event batches a run sends it down a pipe, so that
on a machine with two cores the writing overlaps the run.

Each batch goes down the pipe as raw bytes: a head of two int64 values
(the replication and the row count), then the time, code and occupancy
columns; the writer reads each part whole with one buffered ``readinto``.
The CLI imports this module only for a run that writes events.
"""

from __future__ import annotations

import functools
import os
from contextlib import contextmanager

import numpy as np

# the type of a batch's head, and of its time, code and occupancy columns
_BATCH_HEAD = np.int64
_COLUMNS = (np.float64, np.intp, np.intp)


def _send(fd: int, column) -> None:
    """Write the bytes of numpy array ``column`` to ``fd``, looping on
    partial writes."""
    view = memoryview(column).cast("B")
    while view:
        view = view[os.write(fd, view):]


def _send_batch(fd: int, rep: int, *batch) -> None:
    """Send replication ``rep``'s event batch (``run_simulation``'s three
    columns) down pipe ``fd``: its head, then each column's bytes."""
    _send(fd, np.array((rep, len(batch[0])), dtype=_BATCH_HEAD))
    for column, dtype in zip(batch, _COLUMNS):
        _send(fd, np.ascontiguousarray(column, dtype))


def _read_exactly(pipe, buffer) -> bool:
    """Fill ``buffer`` from the buffered ``pipe``, whose ``readinto`` reads
    until the buffer is full or the stream ends; False at the end of the
    stream before its first byte, an ``EOFError`` inside it."""
    view = memoryview(buffer).cast("B")
    got = pipe.readinto(view)
    if got < len(view):
        if got:
            raise EOFError(f"event batch cut after {got} of {len(view)} bytes")
        return False
    return True


def _write_batches(fd: int, sink_for) -> None:
    """The writer process's work: read each event batch from pipe ``fd``,
    buffered, into arrays sized by the batch and pass it to ``sink_for(rep)``,
    until the pipe's write end is closed; a cut batch raises ``EOFError``."""
    sinks = {}
    head = np.empty(2, dtype=_BATCH_HEAD)
    with open(fd, "rb") as pipe:
        while _read_exactly(pipe, head):
            rep, rows = head.tolist()
            columns = [np.empty(rows, dtype=dtype) for dtype in _COLUMNS]
            for column in columns:
                if not _read_exactly(pipe, column):
                    raise EOFError(f"event batch of {rows} rows cut after its head")
            if rep not in sinks:
                sinks[rep] = sink_for(rep)
            sinks[rep](*columns)


def _fork_writer(fh, sink_for) -> tuple[int, int, int]:
    """Fork a process that passes the event batches sent to it to
    ``sink_for`` (``_write_batches``), then closes ``fh``; return its pid,
    the write end of the pipe that takes the batches and the read end of
    the one that brings back its error text. The process always ends in
    ``os._exit``: 0 once the batch pipe is closed and ``fh`` is written,
    1 after any exception."""
    batches_r, batches_w = os.pipe()
    errors_r, errors_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (batches_r, batches_w, errors_r, errors_w):
            os.close(fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(batches_w)
            os.close(errors_r)
            _write_batches(batches_r, sink_for)
            fh.close()
            status = 0
        except BaseException as exc:  # noqa: BLE001 - reported to the parent
            os.write(errors_w, f"{type(exc).__name__}: {exc}".encode(errors="replace"))
        finally:
            os._exit(status)
    os.close(batches_r)
    os.close(errors_w)
    return pid, batches_w, errors_r


@contextmanager
def forked_sinks(fh, sink_for):
    """Fork a writer process that gives each event batch sent to it to
    ``sink_for(rep)``, the sink of replication ``rep`` that writes to the
    open file ``fh``, then close this process's copy of ``fh``. Yields the
    function that gives replication ``rep``'s sink in this process, which
    sends each batch down a pipe, unbuffered.

    On leaving, the pipe is closed and the writer waited for on every
    path. A writer that failed, or went away mid-run, raises an
    ``OSError`` that names the file and carries the writer's error text.
    """
    fh.flush()
    pid, batches, errors = _fork_writer(fh, sink_for)
    broken = False
    try:
        fh.close()          # the writer holds its own copy
        yield lambda rep: functools.partial(_send_batch, batches, rep)
    except BrokenPipeError:
        broken = True       # the writer has gone; its status and text say why
    finally:
        os.close(batches)
        with open(errors, "rb") as pipe:
            text = pipe.read().decode(errors="replace")
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if broken or status:
        raise OSError(f"cannot write {fh.name}: the event writer failed "
                      f"(exit status {status}): {text or 'no error text'}")
