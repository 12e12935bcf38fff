"""Run the qosguard CLI in this process, as the `qosguard` console script
does, and record when the config was parsed and how long `run_experiment`
took, and the process's own peak resident memory. In `trace` mode, also wrap each layer's functions from outside the
program and aggregate their calls and times.

    python3 probe.py RECORD.json {run,setup,trace} QOSGUARD-ARGS...

`setup` exits as soon as `parse_config` returns: one set-up sample.
"""

from __future__ import annotations

import os
import sys
import time

# sweep points per whole span kept for the analytic sweep
SWEEP_BATCH = 100


class Tracer:
    """Per-call spans aggregated by (name, parent name) into count and total
    time; whole spans are kept only for the coarse phases."""

    def __init__(self):
        self.stack: list[str | None] = [None]
        self.agg: dict[tuple[str, str | None], list] = {}
        self.spans: list[tuple] = []
        self.counters = {"allocator.limit_changes": 0, "simulate.events_held": 0}

    def wrap(self, name, fn, keep=False, after=None):
        agg, stack, spans, clock = self.agg, self.stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            stack.append(name)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                rec = agg.get((name, parent))
                if rec is None:
                    agg[(name, parent)] = [1, t1 - t0]
                else:
                    rec[0] += 1
                    rec[1] += t1 - t0
                if keep:
                    spans.append((name, parent, t0, t1))
            if after is not None:
                after(result)
            return result

        return traced

    def install(self):
        from qosguard import cli, markov, simulate, traffic

        last_limits = [None]

        def limit_change(partition):
            if last_limits[0] is not None and partition.limits != last_limits[0]:
                self.counters["allocator.limit_changes"] += 1
            last_limits[0] = partition.limits

        def events_held(metrics):
            if metrics.events is not None:
                self.counters["simulate.events_held"] += len(metrics.events)

        wrap = self.wrap
        cli.parse_config = wrap("config.parse_config", cli.parse_config, keep=True)
        cli.run_experiment = wrap("cli.run_experiment", cli.run_experiment, keep=True)
        cli._write_csv = wrap("cli.write", cli._write_csv, keep=True)
        cli._analytic_point = wrap("cli.analytic_point", cli._analytic_point, keep=True)
        cli.run_simulation = wrap("simulate.run_simulation", cli.run_simulation,
                                  keep=True, after=events_held)
        partition = wrap("allocator.compute_partition", simulate.compute_partition,
                         after=limit_change)
        cli.compute_partition = simulate.compute_partition = partition
        window = traffic.ArrivalWindow
        window.record_arrival = wrap("traffic.record_arrival", window.record_arrival)
        window.estimate_rate = wrap("traffic.estimate_rate", window.estimate_rate)
        for fn in ("steady_state", "blocking_probabilities", "erlang_b"):
            setattr(markov, fn, wrap(f"markov.{fn}", getattr(markov, fn)))

    def dump(self) -> dict:
        spans, points = [], []
        for span in self.spans:
            (points if span[0] == "cli.analytic_point" else spans).append(span)
        for i in range(0, len(points), SWEEP_BATCH):
            batch = points[i:i + SWEEP_BATCH]
            spans.append(("cli.sweep_batch", batch[0][1], batch[0][2], batch[-1][3]))
        return {
            "agg": [[n, p, c, t] for (n, p), (c, t) in self.agg.items()],
            "counters": self.counters,
            "spans": sorted(spans, key=lambda s: s[2]),
        }


def peak_rss_mib() -> float:
    """This process's own high-water RSS (VmHWM). Unlike the rusage of a
    reaped child, it leaves out the memory of the process that started it."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    record_path, kind, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from qosguard import cli

    record: dict = {}

    def write_record():
        import json

        with open(record_path, "w") as fh:
            json.dump(record, fh)

    tracer = Tracer() if kind == "trace" else None
    if tracer is not None:
        tracer.install()

    parse = cli.parse_config

    def stamped_parse(text):
        spec = parse(text)
        record["parsed_at"] = time.monotonic()
        if kind == "setup":
            write_record()
            os._exit(0)
        return spec

    run = cli.run_experiment

    def timed_run(*args):
        t0 = time.perf_counter()
        run(*args)
        record["run_s"] = time.perf_counter() - t0

    cli.parse_config = stamped_parse
    cli.run_experiment = timed_run
    code = cli.main(argv)
    if tracer is not None:
        record.update(tracer.dump())
    record["peak_rss_mib"] = peak_rss_mib()
    write_record()
    return code


if __name__ == "__main__":
    sys.exit(main())
