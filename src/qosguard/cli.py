"""Command-line front end: analytic sweeps, simulations, paired policy
comparisons, and VLC link budgets, all emitted as CSV plus a manifest.

Exit codes: 0 success, 2 config error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import fields, replace
from itertools import chain, islice
from pathlib import Path

import numpy as np

from . import markov, vlc
from .allocator import partitions
from .config import ConfigError, ExperimentSpec, parse_config, render_manifest, sweep_points
from .simulate import POLICIES, SimScenario, compare_policies, event_fields, run_simulation


# rows per ``%`` operation: the writer holds one block's text at a time
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


def _event_sink(fh, rep: int, m_count: int):
    """Write each event batch of replication ``rep`` to ``fh`` as
    ``_write_csv`` would: ``.9g`` times and every other field by ``str``.
    A batch is ``run_simulation``'s three columns; the kind, class and
    decision fields come from a table of their text by event code, and
    each block of up to ``_ROW_BLOCK`` rows is one ``%`` operation."""
    labels = np.array(["%s,%s,%s" % fields for fields in event_fields(m_count)],
                      dtype=object)
    row_format = f"{rep},%.9g,%s,%s\r\n"

    def write(time, code, occupied):
        for start in range(0, len(time), _ROW_BLOCK):
            block = slice(start, start + _ROW_BLOCK)
            rows = len(time[block])
            fields = [None] * (3 * rows)
            fields[0::3] = time[block].tolist()
            fields[1::3] = labels[code[block]].tolist()
            fields[2::3] = occupied[block].tolist()
            fh.write((row_format * rows) % tuple(fields))

    return write


@contextmanager
def _event_log(path: Path, m_count: int):
    """Open ``path``, write the event log's header and yield the function
    that gives replication ``rep``'s event sink for ``run_simulation``.
    Where ``os.fork`` exists, each sink sends its batches to a writer
    process that writes them with ``_event_sink`` while this one simulates
    (``eventwriter.forked_sinks``); otherwise ``_event_sink`` writes them
    here. The file holds the same bytes either way, and it is opened here,
    so a path that cannot be written fails before any fork."""
    with path.open("w", newline="") as fh:
        fh.write("replication,time,kind,class,decision,occupied_after\r\n")

        def sink_for(rep):
            return _event_sink(fh, rep, m_count)

        if not hasattr(os, "fork"):
            yield sink_for
            return
        # imported here: a run that writes no events need not load it
        from .eventwriter import forked_sinks
        with forked_sinks(fh, sink_for) as send_for:
            yield send_for


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


def _replications(spec: ExperimentSpec, rates) -> list[SimScenario]:
    """The scenario of each replication at ``rates``: every other
    ``SimScenario`` field taken from the spec by name, and replication r
    seeded ``spec.seed + r``."""
    run = {f.name: getattr(spec, f.name) for f in fields(SimScenario)}
    return [SimScenario(**{**run, "rates": rates, "seed": spec.seed + rep})
            for rep in range(spec.replications)]


def _mode_simulate(spec: ExperimentSpec, out: Path) -> None:
    if spec.rates is None:
        raise ConfigError("[traffic] rates required for simulate mode")
    rates = spec.rates
    m_count = len(rates)
    blocking_rows, util_rows, partition_rows = [], [], []
    # events go to disk batch by batch as each replication runs
    events = _event_log(out / "events.csv", m_count) if spec.events else nullcontext()
    with events as sink_for:
        for rep, scenario in enumerate(_replications(spec, rates)):
            sink = sink_for(rep) if sink_for is not None else None
            metrics = run_simulation(scenario, on_events=sink)
            blocking_rows += _class_rows((rep,), metrics.per_class_arrivals,
                                         metrics.per_class_blocks, metrics.empirical_blocking)
            util_rows.append((rep, metrics.utilization, metrics.duration))
            partition_rows += [(rep, *rec) for rec in metrics.partition_trace]
    _write_csv(
        out / "blocking.csv",
        ["replication", "class", "arrivals", "blocks", "empirical_blocking"],
        blocking_rows,
    )
    _write_csv(out / "utilization.csv", ["replication", "utilization", "duration"], util_rows)
    _write_csv(
        out / "partition_trace.csv",
        ["replication", "time"] + [f"y_{m}" for m in range(1, m_count + 1)],
        partition_rows,
    )


def _mode_compare(spec: ExperimentSpec, out: Path) -> None:
    if spec.rates is None:
        raise ConfigError("[traffic] rates required for compare mode")
    blocking_rows, util_rows = [], []
    for rep, scenario in enumerate(_replications(spec, spec.rates)):
        # compare_policies returns the runs in the order of POLICIES
        for policy, metrics in zip(POLICIES, compare_policies(scenario)):
            blocking_rows += _class_rows((rep, policy), metrics.per_class_arrivals,
                                         metrics.per_class_blocks, metrics.empirical_blocking)
            util_rows.append((rep, policy, metrics.utilization, metrics.duration))
    _write_csv(
        out / "blocking.csv",
        ["replication", "policy", "class", "arrivals", "blocks", "empirical_blocking"],
        blocking_rows,
    )
    _write_csv(
        out / "utilization.csv",
        ["replication", "policy", "utilization", "duration"],
        util_rows,
    )


def _mode_sweep(spec: ExperimentSpec, out: Path) -> None:
    _, _, rates = sweep_points(spec)
    _, report, _, _ = _analytic_point(spec, rates)
    points = zip(markov.total_rate(rates).tolist(), rates.tolist(),
                 report.per_class.tolist(), report.utilization.tolist())
    blocking_rows, util_rows = [], []
    for lam_t, point, analytic, analytic_util in points:
        for rep, scenario in enumerate(_replications(spec, point)):
            metrics = run_simulation(scenario)
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
    tau = vlc.lambertian_order(p.half_power_angle)
    g = vlc.concentrator_gain(p.incidence_angle, p.fov, p.refractive_index)
    h = vlc.los_channel_gain(p)
    pr = vlc.received_power(p.transmit_power, h)
    _write_csv(
        out / "link_budget.csv",
        [
            "half_power_angle", "detector_area", "distance", "irradiance_angle",
            "incidence_angle", "fov", "filter_coeff", "refractive_index",
            "lambertian_order", "concentrator_gain", "channel_gain",
            "transmit_power", "received_power",
        ],
        [
            (
                p.half_power_angle, p.detector_area, p.distance, p.irradiance_angle,
                p.incidence_angle, p.fov, p.filter_coeff, p.refractive_index,
                tau, g, h, p.transmit_power, pr,
            )
        ],
    )
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


def run_experiment(spec: ExperimentSpec, mode: str, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _MODE_RUNNERS[mode](spec, out)
    (out / "manifest.txt").write_text(render_manifest(spec, mode))


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
