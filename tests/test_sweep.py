"""``qosguard sweep`` writes ``analyze``'s analytic values next to its
simulated ones: the same strings, point by point and class by class."""

import csv
from pathlib import Path

from qosguard.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def read_csv(path):
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def test_sweep_analytic_columns_are_analyze_values(tmp_path):
    # the README's example config: a lambda_total grid of 4 points, 4 classes
    config = tmp_path / "readme.ini"
    config.write_text(README.read_text().split("```ini\n", 1)[1].split("```", 1)[0])
    assert main(["analyze", "--config", str(config), "--out", str(tmp_path / "analyze")]) == 0
    assert main(["sweep", "--config", str(config), "--arrivals", "2000",
                 "--out", str(tmp_path / "sweep")]) == 0
    analyze = {row["lambda_T"]: row for row in read_csv(tmp_path / "analyze" / "blocking.csv")}
    blocking = read_csv(tmp_path / "sweep" / "blocking.csv")
    utilization = read_csv(tmp_path / "sweep" / "utilization.csv")
    assert len(analyze) == 4
    assert len(blocking) == 4 * 4 and len(utilization) == 4
    for row in blocking:
        assert row["analytic_blocking"] == analyze[row["lambda_T"]][f"B_{row['class']}"]
    for row in utilization:
        assert row["analytic_utilization"] == analyze[row["lambda_T"]]["utilization"]
