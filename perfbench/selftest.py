"""Show that each workload's output check rejects a corrupted copy of a real
output.

    python3 perfbench/selftest.py

Runs each workload's CLI invocation once with seed 1, requires its check to
pass on the real output, then changes one value in a copy and requires the
check to fail:

- sim-sharing-events: one `accept` in events.csv flipped to `block`;
- analyze-sweep: one B_m in blocking.csv nudged by 1e-6;
- sim-dynamic: one partition_trace.csv row made increasing.

Exits 0 when every check passes its real output and rejects its corruption.
"""

from __future__ import annotations

import csv
import shutil
import sys
from pathlib import Path

import checks
import run
import workloads as wl


def _edit_row(path: Path, pick, edit) -> str:
    """Apply `edit` to the first data row for which `pick` is true."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        if pick(row):
            before = ",".join(row)
            edit(row)
            break
    else:
        raise RuntimeError(f"no row to corrupt in {path.name}")
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return f"{path.name}: {before} -> {','.join(row)}"


def flip_decision(out: Path) -> str:
    middle = [0]

    def pick(row):
        middle[0] += 1
        return middle[0] > 1000 and row[4] == "accept"

    return _edit_row(out / "events.csv", pick, lambda row: row.__setitem__(4, "block"))


def nudge_blocking(out: Path) -> str:
    row_index = [0]

    def pick(row):
        row_index[0] += 1
        return row_index[0] == wl.ANA_POINTS // 2

    def edit(row):
        row[2] = f"{float(row[2]) + 1e-6:.9g}"   # B_2

    return _edit_row(out / "blocking.csv", pick, edit)


def break_staircase(out: Path) -> str:
    def edit(row):
        row[-1] = str(int(row[-2]) + 1)          # y_M > y_{M-1}

    return _edit_row(out / "partition_trace.csv", lambda row: True, edit)


SEED = 1
CORRUPTIONS = {
    "sim-sharing-events": flip_decision,
    "analyze-sweep": nudge_blocking,
    "sim-dynamic": break_staircase,
}


def main() -> int:
    ok = True
    for name, corrupt in CORRUPTIONS.items():
        w = wl.make(name, SEED)
        work = run.OUT / f"selftest-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        launch, _ = run.Bench(w, work).invoke("run")
        if not launch.ok:
            print(f"{name}: the CLI invocation failed")
            return 1
        check = checks.CHECKS[name]
        real = check(work / "out", w)
        shutil.copytree(work / "out", work / "corrupt")
        change = corrupt(work / "corrupt")
        found = check(work / "corrupt", w)
        passed = not real and bool(found)
        ok &= passed
        print(f"{name}: real output {'passes' if not real else 'FAILS: ' + real[0]}; "
              f"corrupted ({change}) {'rejected: ' + found[0] if found else 'NOT REJECTED'}")
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
