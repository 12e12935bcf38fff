"""Repeat the benchmark over many seeds and report the run-to-run spread.

    python3 perfbench/spread.py --runs 10 --label A [--first-seed 1] [--workloads a,b]
    python3 perfbench/spread.py --compare .perfbench_out/spread-A.json .perfbench_out/spread-B.json

Run i uses seed first-seed + i on every workload; the workload order is
reversed on every other round. For each end-to-end metric it prints the
median, the quartiles (statistics.quantiles, n=4) and their distance as a
share of the median, and checks that share against the bound in
BENCHMARK.json. --compare checks that the second set's medians are not worse
than the first's by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def collect(names, runs: int, first_seed: int, seconds: int) -> dict:
    results = {name: [] for name in names}
    for i in range(runs):
        order = names if i % 2 == 0 else names[::-1]
        for name in order:
            cmd = [sys.executable, "perfbench/run.py", "--workload", name,
                   "--seed", str(first_seed + i), "--seconds", str(seconds),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"{name} seed {first_seed + i} exited {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results[name].append(result)
            print(f"{name} seed {first_seed + i}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
    return results


def report(results: dict, bounds: dict) -> dict:
    summary = {}
    for name, runs in results.items():
        summary[name] = {
            "correct": all(r["correct"] for r in runs),
            "failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
            "metrics": {},
        }
        for metric in runs[0]["metrics"]:
            s = summarize([r["metrics"][metric]["value"] for r in runs])
            summary[name]["metrics"][metric] = s
            bound = bounds[metric]
            flag = "ok" if s["spread"] <= bound / 3 else "WIDE"
            print(f"{name:20s} {metric:16s} median {s['median']:.6g} q1 {s['q1']:.6g} "
                  f"q3 {s['q3']:.6g} spread {s['spread']:.4f} (bound {bound}) {flag}")
    return summary


def compare(first: dict, second: dict, bench: dict) -> bool:
    ok = True
    for metric in bench["end_to_end"]:
        name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
        for workload in first:
            a = first[workload]["metrics"][name]["median"]
            b = second[workload]["metrics"][name]["median"]
            worse = (b - a) / a if lower else (a - b) / a
            flag = "ok" if worse <= bound else "WORSE"
            ok &= worse <= bound
            print(f"{workload:20s} {name:16s} {a:.6g} -> {b:.6g} worse by {worse:+.4f} "
                  f"(bound {bound}) {flag}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--label", default="A")
    parser.add_argument("--workloads", default=",".join(wl.NAMES))
    parser.add_argument("--compare", nargs=2, metavar="SPREAD_JSON")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        return 0 if compare(first, second, bench) else 1
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = collect(args.workloads.split(","), args.runs, args.first_seed,
                      bench["run_seconds"])
    summary = report(results, bounds)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spread-{args.label}.json"
    path.write_text(json.dumps(summary, indent=1))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
