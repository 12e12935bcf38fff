"""The streamed event log: `simulate` writes `events.csv` batch by batch
while each replication runs. These tests check the batches against the event
log a run holds without a sink, the file against a plain `csv.writer`
reference, the memory a run holds against its length, and the failure path.
"""

import pathlib
import tracemalloc
from dataclasses import replace

import pytest

from oracles import write_events_reference
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
# the batch size, and 700 arrivals make a run shorter than one batch
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


def held_events(cfg):
    """Each replication's whole event log, held in memory without a sink."""
    spec = parse_config(cfg.read_text())
    return [
        run_simulation(
            cli._scenario(spec, spec.rates, spec.seed + rep, True)
        ).events
        for rep in range(spec.replications)
    ]


@pytest.mark.parametrize("batch", [simulate._EVENT_BATCH, 7])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_events_csv_matches_reference_writer(tmp_path, monkeypatch, name, batch):
    monkeypatch.setattr(simulate, "_EVENT_BATCH", batch)
    cfg = write_config(tmp_path, *CONFIGS[name])
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    reference = tmp_path / "reference.csv"
    write_events_reference(reference, held_events(cfg))
    assert (out / "events.csv").read_bytes() == reference.read_bytes()


@pytest.mark.parametrize("arrivals", [700, 9001])
@pytest.mark.parametrize("policy", ["dynamic", "sharing"])
def test_batches_concatenate_to_held_events(tmp_path, arrivals, policy):
    spec = parse_config(write_config(tmp_path, arrivals=arrivals, policy=policy).read_text())
    scenario = cli._scenario(spec, spec.rates, spec.seed, True)
    batches = []
    streamed = run_simulation(scenario, on_events=batches.append)
    held = run_simulation(scenario)
    assert streamed.events is None
    assert [ev for batch in batches for ev in batch] == held.events
    assert all(len(batch) >= simulate._EVENT_BATCH for batch in batches[:-1])
    assert 0 < len(batches[-1])
    assert streamed.per_class_blocks == held.per_class_blocks
    assert streamed.partition_trace == held.partition_trace


def test_no_sink_calls_without_record_events(tmp_path):
    spec = parse_config(write_config(tmp_path).read_text())
    scenario = cli._scenario(spec, spec.rates, spec.seed, False)
    calls = []
    metrics = run_simulation(scenario, on_events=calls.append)
    assert calls == []
    assert metrics.events is None


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
    short = peak_traced_bytes(tmp_path, 5_000)
    long = peak_traced_bytes(tmp_path, 20_000)
    assert long < 1.5 * short, (short, long)


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
