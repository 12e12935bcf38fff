"""The streamed event log: `simulate` writes `events.csv` batch by batch
while each replication runs, from a forked writer process where `os.fork`
exists. These tests check the batches against the event log of the plain
reference loop, the files of the forked writer and of the in-process one
against a plain `csv.writer` reference, the memory a run holds against
its length, and the failure paths, after which no process may be left.
"""

import os
import pathlib
import tracemalloc
from dataclasses import replace

import pytest

from oracles import EventLog, run_logged, run_simulation_reference, write_events_reference
from qosguard import cli, simulate
from qosguard.cli import main
from qosguard.config import parse_config
from qosguard.simulate import run_simulation

BASE_INI = """
[system]
channels = 20
guard = 4
holding_time = 1
window = 30

[traffic]
rates = {rates}

[simulation]
arrivals = {arrivals}
replications = {replications}
policy = {policy}
seed = 5
events = true
"""

# (rates, arrivals, replications, policy); 9001 arrivals is not a multiple of
# the block size, and 700 arrivals make a run shorter than one block
CONFIGS = {
    "dynamic-3-reps": ("9, 12, 6, 3", 6000, 3, "dynamic"),
    "sharing-3-reps": ("9, 12, 6, 3", 6000, 3, "sharing"),
    "odd-length": ("10, 8", 9001, 1, "dynamic"),
    "shorter-than-a-batch": ("10, 8", 700, 1, "dynamic"),
}


def write_config(tmp_path, rates="10, 8", arrivals=5000, replications=1, policy="dynamic"):
    cfg = tmp_path / "events.ini"
    cfg.write_text(BASE_INI.format(
        rates=rates, arrivals=arrivals, replications=replications, policy=policy
    ))
    return cfg


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")

# arrivals per block, so per admission stage and per event batch: the
# default, 7, and 1, where every arrival is a block of its own
BLOCK_SIZES = pytest.mark.parametrize("block", [simulate._BLOCK, 7, 1],
                                      ids=[str(simulate._BLOCK), "7", "1"])


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def no_process_left():
    yield
    assert_no_child_process()


def run_main(argv) -> int:
    """``main(argv)``'s exit code, once it is checked that ``main`` left
    no child process behind."""
    code = main(argv)
    assert_no_child_process()
    return code


def held_events(cfg):
    """Each replication's whole event log, collected by an ``EventLog`` sink."""
    spec = parse_config(cfg.read_text())
    return [run_logged(scenario).events
            for scenario in cli._scenarios(spec, [spec.rates], [spec.policy])]


@BLOCK_SIZES
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_events_csv_matches_reference_writer(tmp_path, monkeypatch, name, block):
    # the forked writer's file where os.fork exists, then the in-process one
    monkeypatch.setattr(simulate, "_BLOCK", block)
    cfg = write_config(tmp_path, *CONFIGS[name])
    reference = tmp_path / "reference.csv"
    write_events_reference(reference, held_events(cfg))
    writers = ["forked", "in-process"] if hasattr(os, "fork") else ["in-process"]
    for writer in writers:
        if writer == "in-process":
            monkeypatch.delattr(os, "fork", raising=False)
        out = tmp_path / writer
        assert run_main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "events.csv").read_bytes() == reference.read_bytes()


@pytest.mark.parametrize("arrivals", [700, 9001])
@pytest.mark.parametrize("policy", ["dynamic", "sharing"])
def test_batches_concatenate_to_held_events(tmp_path, arrivals, policy):
    spec = parse_config(write_config(tmp_path, arrivals=arrivals, policy=policy).read_text())
    (scenario,) = cli._scenarios(spec, [spec.rates], [spec.policy])
    log, batches = EventLog(len(scenario.rates)), []

    def sink(*batch):
        start = len(log.events)
        log(*batch)
        batches.append(log.events[start:])

    streamed = run_simulation(scenario, on_events=sink)
    held = run_simulation_reference(scenario, record_events=True)
    assert streamed.events is None
    assert log.events == held.events
    # one batch per block of arrivals
    arrivals_per_batch = [sum(ev[1] == "arrival" for ev in batch) for batch in batches]
    assert all(k == simulate._BLOCK for k in arrivals_per_batch[:-1])
    assert 0 < arrivals_per_batch[-1] <= simulate._BLOCK
    assert sum(arrivals_per_batch) == arrivals
    assert streamed.per_class_blocks == held.per_class_blocks
    assert streamed.partition_trace == held.partition_trace


def peak_traced_bytes(tmp_path, arrivals) -> int:
    cfg = write_config(tmp_path, arrivals=arrivals)
    out = tmp_path / f"out-{arrivals}"
    tracemalloc.start()
    try:
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_run_length(tmp_path):
    # the first run's one-time set-up is not measured
    assert main(["simulate", "--config", str(write_config(tmp_path, arrivals=5_000)),
                 "--out", str(tmp_path / "out-warm")]) == 0
    short = peak_traced_bytes(tmp_path, 5_000)
    long = peak_traced_bytes(tmp_path, 20_000)
    assert long < 1.5 * short, (short, long)


def test_in_process_writer_memory_does_not_grow_with_run_length(tmp_path, monkeypatch):
    # the forked writer formats the text in a process tracemalloc does not
    # see; without os.fork it is formatted here, under the same bound
    monkeypatch.delattr(os, "fork", raising=False)
    test_memory_does_not_grow_with_run_length(tmp_path)


def test_events_path_is_a_directory_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    (out / "events.csv").mkdir(parents=True)
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
    assert "qosguard: I/O error" in capsys.readouterr().err


def test_failed_replication_closes_events_file(tmp_path, monkeypatch, capsys):
    opened = []
    path_open = pathlib.Path.open

    def spy_open(self, *args, **kwargs):
        fh = path_open(self, *args, **kwargs)
        opened.append(fh)
        return fh

    def failing_run(scenario, on_events=None):
        # stream one batch, then fail mid-run
        run_simulation(replace(scenario, arrivals=50), on_events=on_events)
        raise RuntimeError("replication failed")

    monkeypatch.setattr(pathlib.Path, "open", spy_open)
    monkeypatch.setattr(cli, "run_simulation", failing_run)
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
    assert "replication failed" in capsys.readouterr().err
    events = [fh for fh in opened if pathlib.Path(fh.name).name == "events.csv"]
    assert len(events) == 1
    assert all(fh.closed for fh in opened)
    # the partial file holds the header and the streamed batch
    lines = (out / "events.csv").read_text().splitlines()
    assert lines[0] == "replication,time,kind,class,decision,occupied_after"
    assert len(lines) > 50


def writer_failure(tmp_path, capsys, arrivals) -> tuple[pathlib.Path, str]:
    """Run a simulation of ``arrivals``, expect exit 3 with an I/O error
    naming ``events.csv``, and return the output directory and the error
    text."""
    cfg = write_config(tmp_path, arrivals=arrivals)
    out = tmp_path / "out"
    assert run_main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "qosguard: I/O error" in err
    assert "events.csv" in err
    return out, err


@needs_fork
def test_writer_error_exits_3_with_its_text(tmp_path, monkeypatch, capsys):
    def failing_write(rep, *batch):
        raise RuntimeError("sink failed")

    # the forked writer inherits the write the patched sink returns; the
    # run's one batch fits in the pipe, so only the writer's exit status
    # tells of the failure
    monkeypatch.setattr(cli, "_event_sink", lambda fh, m_count: failing_write)
    _, err = writer_failure(tmp_path, capsys, arrivals=700)
    assert "RuntimeError: sink failed" in err


@needs_fork
def test_writer_gone_at_first_batch_exits_3(tmp_path, monkeypatch, capsys):
    # the writer exits at its first batch without a word; the run's later
    # batches, far more than the pipe holds, meet a broken pipe
    monkeypatch.setattr(cli, "_event_sink", lambda fh, m_count: lambda *batch: os._exit(5))
    out, err = writer_failure(tmp_path, capsys, arrivals=20_000)
    assert "exit status 5" in err
    assert (out / "events.csv").read_text() == (
        "replication,time,kind,class,decision,occupied_after\n")
