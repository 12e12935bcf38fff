"""The event log's writer process: ``forked_writer`` forks a process that
formats and writes the event batches a run sends it down a pipe, so that
on a machine with two cores the writing overlaps the run.

Each batch goes down the pipe as one pickle (protocol 5) of the
replication and the batch's columns, and the writer loads one pickle at a
time from the buffered pipe. The stream may end only between two batches:
the writer raises ``pickle.UnpicklingError`` for a batch cut short. The
CLI imports this module only for a run that writes events.
"""

from __future__ import annotations

import functools
import os
import pickle
from contextlib import contextmanager


def _send(fd: int, data: bytes) -> None:
    """Write ``data`` to ``fd``, looping on partial writes."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _send_batch(fd: int, rep: int, *batch) -> None:
    """Send replication ``rep``'s event batch (``run_simulation``'s three
    columns) down pipe ``fd`` as one pickle. Protocol 5 pickles each numpy
    column's buffer as it is; protocol 4, the default on Python 3.10-3.13,
    copies it through ``tobytes`` first."""
    _send(fd, pickle.dumps((rep, *batch), protocol=5))


def _write_batches(fd: int, write) -> None:
    """The writer process's work: load each event batch from pipe ``fd``,
    buffered, and pass it to ``write(rep, time, code, occupied)``, until
    the pipe's write end is closed. The stream must end before a batch's
    first byte; a batch cut short raises ``pickle.UnpicklingError``."""
    with open(fd, "rb") as pipe:
        while pipe.peek(1):     # b"" only at the end of the stream
            # pickle.load runs what its input names, which is safe here:
            # the parent made this pipe before the fork and only it writes
            try:
                batch = pickle.load(pipe)
            except EOFError:    # a cut at one of the pickle's opcode boundaries
                raise pickle.UnpicklingError("event batch cut short") from None
            write(*batch)


def _fork_writer(fh, write) -> tuple[int, int, int]:
    """Fork a process that passes the event batches sent to it to
    ``write`` (``_write_batches``), then closes ``fh``; return its pid,
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
            _write_batches(batches_r, write)
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
def forked_writer(fh, write):
    """Fork a writer process that gives each event batch sent to it to
    ``write(rep, time, code, occupied)``, which writes replication ``rep``'s
    batch to the open file ``fh``, then close this process's copy of ``fh``.
    Yields the function ``send(rep, time, code, occupied)`` of this process,
    which sends each batch down a pipe, unbuffered.

    On leaving, the pipe is closed and the writer waited for on every
    path. A writer that failed, or went away mid-run, raises an
    ``OSError`` that names the file and carries the writer's error text.
    """
    fh.flush()
    pid, batches, errors = _fork_writer(fh, write)
    broken = False
    try:
        fh.close()          # the writer holds its own copy
        yield functools.partial(_send_batch, batches)
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
