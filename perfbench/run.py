"""qosguard benchmark: run one workload through the real CLI for a fixed time,
check its outputs and print the metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the repository root. Each round launches one set-up probe (a CLI
process that exits once the config is parsed) and one full CLI invocation,
one process at a time, until S seconds have passed.
Every invocation in a run is the same command on the same seeded config, so
their outputs must be byte-identical; the last one is checked in full after
timing stops.

--trace 0 prints the end-to-end metrics (medians over the run's samples).
--trace 1 alternates untraced and traced invocations and prints the
per-layer metrics of the traced ones; see README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import workloads as wl

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PROBE = BENCH_DIR / "probe.py"

SETUP_PROBES_PER_ROUND = 1

END_TO_END_UNITS = {"wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MiB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "config.parse_s": "s",
    "allocator.compute_partition.calls": "count",
    "allocator.compute_partition.self_s": "s",
    "allocator.limit_changes": "count",
    "traffic.record_arrival.calls": "count",
    "traffic.record_arrival.self_s": "s",
    "traffic.estimate_rate.calls": "count",
    "traffic.estimate_rate.self_s": "s",
    "simulate.loop_self_s": "s",
    "simulate.events_held": "count",
    "markov.steady_state.calls": "count",
    "markov.steady_state.us_per_call": "us",
    "markov.erlang_b.self_s": "s",
    "markov.blocking_probabilities.self_s": "s",
    "cli.write_self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
}
COUNTS = [k for k, unit in PER_LAYER_UNITS.items() if unit in ("count", "bytes")]


@dataclass
class Launch:
    ok: bool
    wall_s: float
    rss_mib: float
    setup_s: float
    record: dict


class Bench:
    def __init__(self, w: wl.Workload, work: Path):
        self.w = w
        self.work = work
        self.config = work / "config.ini"
        self.config.write_text(w.config_text)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failed = 0

    def launch(self, kind: str, out: Path) -> Launch:
        """Start one CLI process through the probe and wait for it to exit."""
        record_path = self.work / "record.json"
        record_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(PROBE), str(record_path), kind, self.w.mode,
               "--config", str(self.config), "--out", str(out), *self.w.cli_args]
        self.attempted += 1
        with (self.work / "stderr.txt").open("w") as err:
            t0 = time.monotonic()
            proc = subprocess.run(cmd, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            wall = time.monotonic() - t0
        record = json.loads(record_path.read_text()) if record_path.exists() else {}
        ok = proc.returncode == 0 and "parsed_at" in record
        if not ok:
            self.failed += 1
            sys.stderr.write(f"{kind} launch failed (exit {proc.returncode}): "
                             f"{(self.work / 'stderr.txt').read_text()}\n")
        return Launch(ok, wall, record.get("peak_rss_mib", 0.0),
                      record.get("parsed_at", t0) - t0, record)

    def invoke(self, kind: str) -> tuple[Launch, dict]:
        """One full invocation into a fresh output directory; returns the
        launch and a digest of every file it wrote."""
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        launch = self.launch(kind, out)
        digest = {}
        for path in sorted(out.iterdir()) if out.is_dir() else ():
            with path.open("rb") as fh:
                digest[path.name] = (path.stat().st_size,
                                     hashlib.file_digest(fh, "sha256").hexdigest())
        return launch, digest


def layer_metrics(record: dict, digest: dict) -> dict:
    total, calls, child = defaultdict(float), defaultdict(int), defaultdict(float)
    for name, parent, count, seconds in record["agg"]:
        total[name] += seconds
        calls[name] += count
        if parent is not None:
            child[parent] += seconds
    self_s = {name: total[name] - child[name] for name in total}
    steady_calls = calls["markov.steady_state"]
    return {
        "config.parse_s": total["config.parse_config"],
        "allocator.compute_partition.calls": calls["allocator.compute_partition"],
        "allocator.compute_partition.self_s": self_s.get("allocator.compute_partition", 0.0),
        "allocator.limit_changes": record["counters"]["allocator.limit_changes"],
        "traffic.record_arrival.calls": calls["traffic.record_arrival"],
        "traffic.record_arrival.self_s": self_s.get("traffic.record_arrival", 0.0),
        "traffic.estimate_rate.calls": calls["traffic.estimate_rate"],
        "traffic.estimate_rate.self_s": self_s.get("traffic.estimate_rate", 0.0),
        "simulate.loop_self_s": self_s.get("simulate.run_simulation", 0.0),
        "simulate.events_held": record["counters"]["simulate.events_held"],
        "markov.steady_state.calls": steady_calls,
        "markov.steady_state.us_per_call":
            total["markov.steady_state"] / steady_calls * 1e6 if steady_calls else 0.0,
        "markov.erlang_b.self_s": self_s.get("markov.erlang_b", 0.0),
        "markov.blocking_probabilities.self_s": self_s.get("markov.blocking_probabilities", 0.0),
        "cli.write_self_s": sum(s for name, s in self_s.items() if name.startswith("cli.")),
        "cli.bytes_written": sum(size for size, _ in digest.values()),
    }


def measure(bench: Bench, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Repeat rounds until `seconds` have passed; returns metrics and problems."""
    problems: list[str] = []
    setups, runs, traced = [], [], []
    first_digest = None
    start = time.monotonic()
    while not runs or time.monotonic() - start < seconds:
        for _ in range(0 if trace else SETUP_PROBES_PER_ROUND):
            probe = bench.launch("setup", bench.work / "out")
            if probe.ok:
                setups.append(probe.setup_s)
        kinds = ("run", "trace") if trace else ("run",)
        for kind in kinds:
            launch, digest = bench.invoke(kind)
            if not launch.ok:
                continue
            if first_digest is None:
                first_digest = digest
            elif digest != first_digest:
                problems.append(f"{kind} invocation wrote different outputs than the first")
            if kind == "trace":
                traced.append((launch, layer_metrics(launch.record, digest)))
            else:
                runs.append(launch)
                setups.append(launch.setup_s)
        if not runs and bench.failed >= 3:
            break
    if not runs or (trace and not traced):
        return {}, problems + ["no invocation completed"]
    if not trace:
        return {
            "wall_s": statistics.median(r.wall_s for r in runs),
            "items_per_s": statistics.median(bench.w.items / r.record["run_s"] for r in runs),
            "peak_rss_mb": statistics.median(r.rss_mib for r in runs),
            "setup_s": statistics.median(setups),
        }, problems
    layers = [m for _, m in traced]
    metrics = {}
    for name in PER_LAYER_UNITS:
        if name == "trace.overhead_s":
            continue
        values = [m[name] for m in layers]
        if name in COUNTS and len(set(values)) > 1:
            problems.append(f"{name} differs between traced invocations: {values}")
        metrics[name] = values[0] if name in COUNTS else statistics.median(values)
    metrics["trace.overhead_s"] = (statistics.median(t.wall_s for t, _ in traced)
                                   - statistics.median(r.wall_s for r in runs))
    (bench.work / "trace.json").write_text(json.dumps(traced[-1][0].record, indent=1))
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qosguard" / "cli.py").is_file():
        print(f"perfbench: no qosguard sources under {SRC}", file=sys.stderr)
        return 2
    import checks

    w = wl.make(args.workload, args.seed)
    work = OUT / w.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(w, work)
    # untimed warm-up: fills the bytecode cache and the page cache
    bench.launch("setup", work / "out")
    bench.attempted = bench.failed = 0

    metrics, problems = measure(bench, args.seconds, bool(args.trace))
    if metrics:
        problems += checks.CHECKS[w.name](work / "out", w)
    for problem in problems:
        print(f"perfbench: {w.name}: {problem}", file=sys.stderr)
    if not metrics:
        return 3
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": not problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
