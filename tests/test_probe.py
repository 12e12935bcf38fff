"""The benchmark's probe (`perfbench/probe.py`) wraps names of `qosguard`
from outside the program. This test installs its tracer in this process and
runs the CLI, so a rename of a name it patches fails here, not only in the
traced benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

from qosguard import cli, markov, simulate, traffic

PROBE = Path(__file__).resolve().parents[1] / "perfbench" / "probe.py"
# every object whose attributes the tracer sets
PATCHED = (cli, markov, simulate, traffic.ArrivalWindow)

CONFIG = """
[system]
channels = 20
guard = 4
holding_time = 1
window = 30

[traffic]
rates = 9, 12, 6, 3

[sweep]
lambda_total = 10, 20, 30

[simulation]
arrivals = 3000
replications = 2
events = true
"""


def install_tracer(monkeypatch):
    """Install the probe's tracer with every attribute it sets made through
    ``monkeypatch``, which puts the old values back. Returns the tracer and
    the old value of each attribute set, by (object, name); None where the
    object had no such attribute."""
    spec = importlib.util.spec_from_file_location("probe", PROBE)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    before = [dict(vars(obj)) for obj in PATCHED]
    tracer = probe.Tracer()
    tracer.install()
    replaced = {}
    for obj, old in zip(PATCHED, before):
        for name, value in list(vars(obj).items()):
            if name in old and old[name] is value:
                continue
            replaced[obj, name] = old.get(name)
            # undo the tracer's assignment and make it again through
            # monkeypatch, so that monkeypatch records the old value
            if name in old:
                setattr(obj, name, old[name])
            else:
                delattr(obj, name)
            monkeypatch.setattr(obj, name, value, raising=False)
    return tracer, replaced


@pytest.mark.parametrize("mode, span", [("simulate", "simulate.run_simulation"),
                                        ("analyze", "cli.analytic_point")])
def test_traced_run(tmp_path, monkeypatch, mode, span):
    cfg = tmp_path / "probe.ini"
    cfg.write_text(CONFIG)
    tracer, replaced = install_tracer(monkeypatch)
    assert (cli, "run_simulation") in replaced
    assert cli.main([mode, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    names = {s[0] for s in tracer.spans}
    assert {"config.parse_config", "cli.run_experiment", "cli.write", span} <= names
    monkeypatch.undo()
    assert {key: vars(key[0]).get(key[1]) for key in replaced} == replaced
