"""Command-line front end: analytic sweeps, simulations, paired policy
comparisons, and VLC link budgets, all emitted as CSV plus a manifest.

Exit codes: 0 success, 2 config error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterator
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, fields, replace
from functools import partial
from itertools import chain, islice, product
from pathlib import Path

import numpy as np

from . import markov, vlc
from .allocator import partitions
from .config import ConfigError, ExperimentSpec, parse_config, render_manifest, sweep_points
from .simulate import POLICIES, SimMetrics, SimScenario, event_fields, run_simulation


# rows per ``%`` operation of a CSV table: the writer holds one block's text at a time
_ROW_BLOCK = 4096


def _write_rows(write, row_format: str, rows) -> None:
    """Write ``rows`` with ``write``, each row formatted by ``row_format``,
    one ``%`` operation per block of at most ``_ROW_BLOCK`` rows."""
    rows = iter(rows)
    while block := list(islice(rows, _ROW_BLOCK)):
        write((row_format * len(block)) % tuple(chain.from_iterable(block)))


def _write_csv(path: Path, header, rows) -> None:
    """Write ``header`` and ``rows`` to ``path`` as CSV with ``\r\n`` line
    ends and no quoting, since no field holds a comma, a quote or a line
    break. A float (numpy's included) is written as ``.9g`` and any other
    value by ``str``; the first row's value types set each column's format,
    so every column must hold one type."""
    rows = iter(rows)
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        first = next(rows, None)
        if first is not None:
            row_format = ",".join(
                "%.9g" if isinstance(v, float) else "%s" for v in first
            ) + "\r\n"
            _write_rows(fh.write, row_format, chain((first,), rows))


def _event_sink(fh, m_count: int):
    """The function ``write(rep, time, code, occupied)`` that writes each
    event batch of replication ``rep`` to the binary file ``fh`` as
    ``_write_csv`` would write its lines (``eventwriter.event_sink``)."""
    # imported here: a run that writes no events need not load it
    from .eventwriter import event_sink
    return event_sink(fh, event_fields(m_count))


@contextmanager
def _event_log(path: Path, m_count: int):
    """Open ``path``, write the event log's header and yield the function
    ``write(rep, time, code, occupied)`` that logs replication ``rep``'s
    event batch. Where ``os.fork`` exists, it sends the batch to a writer
    process that writes it with ``_event_sink`` while this one simulates
    (``eventwriter.forked_writer``); otherwise ``_event_sink`` writes it
    here. The file holds the same bytes either way, and it is opened here,
    so a path that cannot be written fails before any fork."""
    with path.open("wb") as fh:
        fh.write(b"replication,time,kind,class,decision,occupied_after\r\n")
        write = _event_sink(fh, m_count)
        if not hasattr(os, "fork"):
            yield write
            return
        from .eventwriter import forked_writer
        with forked_writer(fh, write) as send:
            yield send


def _analytic_point(spec, rates):
    """Analytic B_m and utilization under the dynamic partition at every
    point of the rate grid, plus the complete-sharing baseline at the same
    total load. Returns the guard access, the blocking report, B_sharing and
    util_sharing, each with one row per point."""
    config = spec.config
    access, limits = partitions(config, rates)
    report = markov.blocking_probabilities(config, limits, rates)
    offered = report.offered_load
    b_sharing = markov.erlang_b(config.n_channels, offered)
    util_sharing = offered * (1 - b_sharing) / config.n_channels
    return access, report, b_sharing, util_sharing


def _mode_analyze(spec: ExperimentSpec, out: Path) -> None:
    label, values, rates = sweep_points(spec)
    m_count = rates.shape[1]
    access, report, b_sharing, util_sharing = _analytic_point(spec, rates)
    lam_t = markov.total_rate(rates)
    # rows go to the writer a block at a time, converted from the arrays
    blocking = np.column_stack(
        (lam_t, report.per_class, report.utilization, b_sharing, util_sharing)
    )
    _write_csv(
        out / "blocking.csv",
        ["lambda_T"]
        + [f"B_{m}" for m in range(1, m_count + 1)]
        + ["utilization", "B_sharing", "util_sharing"],
        map(np.ndarray.tolist, blocking),
    )
    utilization = np.column_stack((lam_t, report.utilization, util_sharing))
    _write_csv(
        out / "utilization.csv",
        ["lambda_T", "utilization", "util_sharing"],
        map(np.ndarray.tolist, utilization),
    )
    _write_csv(
        out / "partition_trace.csv",
        [label] + [f"y_{m}" for m in range(1, m_count + 1)],
        ((value, *y) for value, y in zip(values, map(np.ndarray.tolist, access))),
    )


def _class_rows(key, *columns):
    """One row per class m: the fields of ``key``, the class number m + 1
    and class m's entry of each of ``columns``."""
    return [(*key, m + 1, *values) for m, values in enumerate(zip(*columns))]


def _scenarios(spec: ExperimentSpec, points, policies) -> list[SimScenario]:
    """Each run's scenario, by rate vector of ``points``, then replication
    r, then policy of ``policies``: seeded ``spec.seed + r``, every other
    ``SimScenario`` field taken from the spec by name. A ``ConfigError`` if
    a rate vector is None: the config gave no ``[traffic] rates``."""
    if any(rates is None for rates in points):
        raise ConfigError("[traffic] rates required to simulate")
    run = {f.name: getattr(spec, f.name) for f in fields(SimScenario)}
    return [SimScenario(**{**run, "rates": rates, "seed": spec.seed + rep, "policy": policy})
            for rates in points for rep in range(spec.replications) for policy in policies]


def _run_all(spec: ExperimentSpec, points, policies, events) -> Iterator[SimMetrics]:
    """Run every scenario of ``_scenarios`` in order, all built before the
    first run, and yield each run's metrics as it ends, so a sweep holds
    one run's traces at a time. Given ``events``, the event log's path, run
    r's events are logged as replication r's, which run r is at one rate
    vector and one policy."""
    scenarios = _scenarios(spec, points, policies)
    log = nullcontext() if events is None else _event_log(events, len(scenarios[0].rates))
    with log as write:
        for rep, scenario in enumerate(scenarios):
            yield run_simulation(scenario, on_events=None if write is None else partial(write, rep))


def _write_runs(out: Path, key_names, runs) -> None:
    """Write ``blocking.csv`` and ``utilization.csv`` of ``runs``, pairs of
    a run's key values and its ``SimMetrics``: each row starts with its
    run's key values, under the headers ``key_names``."""
    _write_csv(
        out / "blocking.csv",
        [*key_names, "class", "arrivals", "blocks", "empirical_blocking"],
        chain.from_iterable(
            _class_rows(key, metrics.per_class_arrivals, metrics.per_class_blocks,
                        metrics.empirical_blocking)
            for key, metrics in runs),
    )
    _write_csv(out / "utilization.csv", [*key_names, "utilization", "duration"],
               ((*key, metrics.utilization, metrics.duration) for key, metrics in runs))


def _mode_simulate(spec: ExperimentSpec, out: Path) -> None:
    # events go to disk batch by batch as each replication runs
    events = out / "events.csv" if spec.events else None
    runs = [((rep,), metrics) for rep, metrics
            in enumerate(_run_all(spec, [spec.rates], [spec.policy], events))]
    _write_runs(out, ["replication"], runs)
    _write_csv(
        out / "partition_trace.csv",
        ["replication", "time"] + [f"y_{m}" for m in range(1, len(spec.rates) + 1)],
        ((*key, *rec) for key, metrics in runs for rec in metrics.partition_trace),
    )


def _mode_compare(spec: ExperimentSpec, out: Path) -> None:
    keys = product(range(spec.replications), POLICIES)
    _write_runs(out, ["replication", "policy"],
                list(zip(keys, _run_all(spec, [spec.rates], POLICIES, None))))


def _mode_sweep(spec: ExperimentSpec, out: Path) -> None:
    _, _, rates = sweep_points(spec)
    _, report, _, _ = _analytic_point(spec, rates)
    points = zip(markov.total_rate(rates).tolist(), report.per_class.tolist(),
                 report.utilization.tolist())
    runs = zip(product(points, range(spec.replications)),
               _run_all(spec, rates.tolist(), [spec.policy], None))
    blocking_rows, util_rows = [], []
    for ((lam_t, analytic, analytic_util), rep), metrics in runs:
        blocking_rows += _class_rows((lam_t, rep), metrics.per_class_arrivals,
                                     metrics.empirical_blocking, analytic)
        util_rows.append((lam_t, rep, metrics.utilization, analytic_util))
    _write_csv(
        out / "blocking.csv",
        ["lambda_T", "replication", "class", "arrivals", "empirical_blocking", "analytic_blocking"],
        blocking_rows,
    )
    _write_csv(
        out / "utilization.csv",
        ["lambda_T", "replication", "utilization", "analytic_utilization"],
        util_rows,
    )


def _mode_vlc_link(spec: ExperimentSpec, out: Path) -> None:
    p = spec.vlc
    # the link's fields, then its derived values, with the two powers last
    link = asdict(p)
    link["lambertian_order"] = vlc.lambertian_order(p.half_power_angle)
    link["concentrator_gain"] = vlc.concentrator_gain(p.incidence_angle, p.fov,
                                                      p.refractive_index)
    link["channel_gain"] = vlc.los_channel_gain(p)
    link["transmit_power"] = link.pop("transmit_power")
    link["received_power"] = vlc.received_power(p.transmit_power, link["channel_gain"])
    _write_csv(out / "link_budget.csv", list(link), [tuple(link.values())])
    _write_csv(
        out / "color_bands.csv",
        ["band", "low_nm", "high_nm", "width_nm"],
        [(i, lo, hi, hi - lo) for i, lo, hi in vlc.BAND_PLAN],
    )


_MODE_RUNNERS = {
    "analyze": _mode_analyze,
    "simulate": _mode_simulate,
    "compare": _mode_compare,
    "sweep": _mode_sweep,
    "vlc-link": _mode_vlc_link,
}

# every CSV a mode may write, by stem
_OUTPUTS = ("blocking", "utilization", "partition_trace", "events", "link_budget", "color_bands")


def run_experiment(spec: ExperimentSpec, mode: str, out_dir) -> None:
    """Remove ``out_dir``'s manifest and every qosguard CSV in it, run
    ``mode`` for ``spec`` into it and write the manifest last: a directory
    with a manifest holds only the files of the run that wrote it, and a
    failed run leaves only its own partial files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = out / "manifest.txt"
    for path in (manifest, *(out / f"{stem}.csv" for stem in _OUTPUTS)):
        path.unlink(missing_ok=True)
    _MODE_RUNNERS[mode](spec, out)
    manifest.write_text(render_manifest(spec, mode))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qosguard",
        description="Dynamic guard-channel admission control: analysis, simulation, VLC link budgets.",
    )
    parser.add_argument("mode", choices=_MODE_RUNNERS)
    parser.add_argument("--config", required=True, help="experiment config file (INI)")
    parser.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--arrivals", type=int, default=None, help="override simulated arrivals")
    parser.add_argument("--policy", choices=POLICIES, default=None)
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"qosguard: cannot read config: {exc}", file=sys.stderr)
        return 2
    overrides = {name: getattr(args, name) for name in ("seed", "arrivals", "policy")
                 if getattr(args, name) is not None}
    try:
        spec = replace(parse_config(text), **overrides)
        run_experiment(spec, args.mode, args.out)
    except ConfigError as exc:
        print(f"qosguard: config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"qosguard: I/O error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"qosguard: error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
