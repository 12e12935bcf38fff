"""The event log's writer: ``event_sink`` formats each event batch a run
sends, and ``forked_writer`` forks a process that writes the batches a run
sends it down a pipe, so that on a machine with two cores the writing
overlaps the run.

Of each event's line only the time is formatted per line; the rest comes
whole from a table. ``event_sink`` writes a batch's times in [1, 1e8) as
``%.9g`` would, from tables of digit cells in numpy (``_time_cells``); a
short batch, or one holding a time those cells cannot vouch for, goes the
plain ``%`` way.

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

import numpy as np

# the pipe that takes the batches holds this many bytes where the platform
# lets a process size its own pipes: more than one 2048-arrival batch
# (~96 KiB pickled), which would overfill Linux's default 64 KiB
_PIPE_BYTES = 256 * 1024

# a batch of fewer rows goes the ``%`` way: the numpy way costs ~25 us a
# batch and ~0.08 us a row, the ``%`` way ~3 us and ~0.22 us, so they
# break even at 160-190 rows (x86-64, Python 3.11, numpy 2.4)
_MIN_ROWS = 192

# the float t * 10**(9-k), below 2**30, is off the exact product by at most
# 2**-24: where it is more than 0.5 - _TIE = 1e-6 from a half, its rint is
# the exact product rounded, as ``%.9g`` rounds it
_TIE = 0.499999


def _cut(cells: np.ndarray) -> np.ndarray:
    """``cells`` (rows of ASCII bytes, NUL-padded) with trailing zeros,
    then a trailing point, replaced by NUL: ``str.rstrip("0").rstrip(".")``
    on each row."""
    cells = cells.copy()
    width = cells.shape[1]
    for char in b"0.":
        for i in reversed(range(width)):
            trailing = (cells[:, i + 1:] == 0).all(axis=1)
            cells[trailing & (cells[:, i] == char), i] = 0
    return cells


def _digit_cells() -> np.ndarray:
    """The text of each 3-digit chunk c (0-999) of a time's 9 significant
    digits as 4 NUL-padded bytes viewed as one ``uint32``, in 9 tables of
    1000 cells, the cell of c at ``1000 * table + c``:

    - 0 and 1: the 3 digits, for a chunk before the point, and for one
      after it with a nonzero chunk after it;
    - 2: the 3 digits with trailing zeros cut, for the last chunk after
      the point;
    - 3, 5 and 7: the chunk with the point after its digit 1, 2 or 3, kept;
    - 4, 6 and 8: the same with trailing zeros, then a bare point, cut.
    """
    chunk = np.arange(1000)
    digits = np.stack([chunk // 100, chunk // 10 % 10, chunk % 10], axis=1) + ord("0")
    whole = np.pad(digits, ((0, 0), (0, 1)))
    tables = [whole, whole, _cut(whole)]
    for at in (1, 2, 3):
        kept = np.insert(digits, at, ord("."), axis=1)
        tables += [kept, _cut(kept)]
    return np.array(tables, dtype=np.uint8).view(np.uint32).ravel()


def _chunk_bases() -> np.ndarray:
    """``bases[k, j]``: the first cell of the table of ``_digit_cells`` that
    chunk j (digits 3j+1 to 3j+3) of a time with k digits before the point
    takes its text from while a later chunk is nonzero. Once none is, the
    text is in the next table, 1000 cells on; the last chunk, which has no
    later one, always takes that table."""
    bases = np.zeros((9, 3), dtype=np.intp)
    for k in range(1, 9):
        for j in range(3):
            first, last = 3 * j + 1, 3 * j + 3
            if last < k:
                table = 0               # before the point
            elif first > k:
                table = 1               # after it
            else:
                table = 2 * (k - first) + 3   # holds it
            bases[k, j] = 1000 * (table + (j == 2))
    return bases


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """The formatter's read-only tables: the powers of ten that give a
    time's digit count k, the power 10**(9-k) by k, ``_digit_cells`` and
    ``_chunk_bases``. They are built at the first batch that goes the numpy
    way, in the writer process where there is one: a run's own process
    then neither builds them nor maps the numpy kernels that do."""
    # a time t >= 10**(k-1) has k digits before the point, and t * 10**(9-k)
    # is its 9 significant digits; both powers of ten are exact floats
    tables = (10.0 ** np.arange(8), 10.0 ** (9 - np.arange(9)), _digit_cells(), _chunk_bases())
    for table in tables:
        table.flags.writeable = False
    return tables


def _time_cells(time: np.ndarray) -> np.ndarray | None:
    """The ``%.9g`` text of each time as three NUL-padded 4-byte cells, one
    row of ``uint32`` per time. ``None`` where the cells could differ from
    ``%.9g``: a time outside [1, 1e8), a time whose digits past the 9th are
    within 1e-6 of a half, or one that rounds up to 10**k."""
    if not (time.min() >= 1.0 and time.max() < 1e8):
        return None
    pow10, scale, digit_cells, bases = _tables()
    k = pow10.searchsorted(time, "right")
    scaled = time * scale.take(k)
    digits = np.rint(scaled)
    scaled -= digits
    np.abs(scaled, out=scaled)
    if scaled.max() > _TIE or digits.max() >= 1e9:
        return None
    high, rest = np.divmod(digits.astype(np.int32), 1_000_000)
    mid, low = np.divmod(rest, 1000)
    cells = bases.take(k, axis=0)
    # a chunk after the point is cut where no later chunk is nonzero
    low_zero = low == 0
    cells[:, 0] += high
    cells[:, 0] += (low_zero & (mid == 0)) * 1000
    cells[:, 1] += mid
    cells[:, 1] += low_zero * 1000
    cells[:, 2] += low
    return digit_cells.take(cells)


def event_sink(fh, fields):
    """The function ``write(rep, time, code, occupied)`` that writes each
    event batch of replication ``rep`` to the binary file ``fh``, a line
    ``rep,time,kind,class,decision,occupied`` an event, each float as
    ``%.9g``; ``fields[code]`` is the code's (kind, class, decision).

    The part of a line after the time comes from a table by (code,
    occupancy), built again, twice as wide, for each occupancy the run
    reaches beyond it. A batch of at least ``_MIN_ROWS`` rows whose times
    ``_time_cells`` can format is filled into one record a line, whose
    NUL padding is then dropped; any other batch is one ``%`` over a format
    that joins ``rep,%.9g`` and the table's text per line."""
    rests = np.empty((len(fields), 0), dtype="S1")

    def write(rep, time, code, occupied):
        nonlocal rests
        if (reached := int(occupied.max()) + 1) > rests.shape[1]:
            rests = np.array([[f",{kind},{m},{decision},{held}\r\n".encode()
                               for held in range(max(reached, 2 * rests.shape[1]))]
                              for kind, m, decision in fields])
        rest = rests[code, occupied]
        cells = _time_cells(time) if len(time) >= _MIN_ROWS else None
        if cells is None:
            head = b"%d,%%.9g" % rep
            fh.write((head + head.join(rest.tolist())) % tuple(time.tolist()))
            return
        prefix = b"%d," % rep
        lines = np.empty(len(time), dtype=[("rep", f"S{len(prefix)}"), ("time", np.uint32, 3),
                                           ("rest", rest.dtype)])
        lines["rep"] = prefix
        lines["time"] = cells
        lines["rest"] = rest
        # no text of a line holds a NUL byte: only the padding does
        fh.write(lines.tobytes().translate(None, b"\0"))

    return write


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
    import fcntl                # POSIX only, as os.fork is
    if hasattr(fcntl, "F_SETPIPE_SZ"):
        try:
            fcntl.fcntl(batches_w, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        except OSError:         # over the system's limit: the default size works
            pass
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
