import csv
from pathlib import Path

import numpy as np
import pytest
from test_simulate import _ZeroGapRng

from qosguard import cli
from qosguard.cli import main
from qosguard.config import ConfigError, parse_config

ANALYZE_INI = """
[system]
channels = 100
guard = 10
holding_time = 120

[traffic]
ratio = 1,1,1,1

[sweep]
lambda_total = 0.5, 0.667, 0.833
"""

SIM_INI = """
[traffic]
rates = 0.2, 0.2, 0.2, 0.2

[simulation]
arrivals = 20000
seed = 3
events = true
"""


# one bad value per validated field: (mode, config lines, CLI arguments,
# the field path expected on stderr); a config without its own [traffic]
# section gets [traffic] rates = 0.3, 0.3
BAD_FIELDS = [
    ("analyze", "[system]\nholding_time = 0", [], "[system] holding_time"),
    ("analyze", "[system]\nholding_time = inf", [], "[system] holding_time"),
    ("analyze", "[system]\nmu = 0", [], "[system] mu"),
    ("analyze", "[system]\nmu = inf", [], "[system] mu"),
    ("simulate", "[system]\nmu = nan", [], "[system] mu"),
    ("analyze", "[traffic]\nrates = nan, 1", [], "[traffic] rates"),
    ("analyze", "[traffic]\nrates = 1e308, 1e308", [], "[traffic] rates"),
    ("analyze", "[sweep]\nlambda_total = 1\n[traffic]\nratio = inf, 1", [], "[traffic] ratio"),
    ("analyze", "[sweep]\nlambda_total = 1\n[traffic]\nratio = nan, 1", [], "[traffic] ratio"),
    ("analyze", "[sweep]\nlambda_total = -1, 0.5", [], "[sweep] lambda_total"),
    ("analyze", "[sweep]\nlambda_total = 0.5, nan", [], "[sweep] lambda_total"),
    ("analyze", "[sweep]\nlambda_1 = -0.1, 0.3", [], "[sweep] lambda_1"),
    # every entry finite, but total rate x holding time overflows
    ("analyze", "[system]\nholding_time = 1e308\n[traffic]\nrates = 1, 1", [], "[traffic] rates"),
    ("analyze", "[traffic]\nrates = 1e308, 7e307\n[sweep]\nlambda_1 = 1e308", [],
     "[sweep] lambda_1"),
    ("analyze", "[traffic]\nrates = 1, 1e306\n[sweep]\nlambda_1 = 1, 1e306", [],
     "[sweep] lambda_1"),
    ("analyze", "[sweep]\nlambda_total = 1, 1e307", [], "[sweep] lambda_total"),
    # rates used as the ratio of a lambda_total sweep need a positive sum
    ("analyze", "[traffic]\nrates = 0, 0\n[sweep]\nlambda_total = 1, 2", [],
     "[sweep] lambda_total"),
    ("simulate", "[simulation]\narrivals = 0", [], "[simulation] arrivals"),
    ("simulate", "[simulation]\nwarmup = 1.0", [], "[simulation] warmup"),
    ("simulate", "[simulation]\npolicy = greedy", [], "[simulation] policy"),
    ("simulate", "[simulation]\nreplications = 0", [], "[simulation] replications"),
    ("simulate", "[simulation]\ntrace_stride = 0", [], "[simulation] trace_stride"),
    ("simulate", "[simulation]\nseed = -1", [], "[simulation] seed"),
    ("simulate", "", ["--arrivals", "0"], "[simulation] arrivals"),
    ("simulate", "", ["--arrivals", "-5"], "[simulation] arrivals"),
    ("simulate", "", ["--seed", "-1"], "[simulation] seed"),
    ("simulate", "", ["--seed", "x"], "--seed"),
    ("simulate", "", ["--policy", "greedy"], "--policy"),
    ("vlc-link", "[vlc]\nhalf_power_angle = 95", [], "[vlc] half_power_angle"),
    ("vlc-link", "[vlc]\ndetector_area = 0", [], "[vlc] detector_area"),
    ("vlc-link", "[vlc]\ndistance = -2", [], "[vlc] distance"),
    ("vlc-link", "[vlc]\nfov = 91", [], "[vlc] fov"),
    ("vlc-link", "[vlc]\nfilter_coeff = 1.5", [], "[vlc] filter_coeff"),
    ("vlc-link", "[vlc]\nrefractive_index = 0.9", [], "[vlc] refractive_index"),
    ("vlc-link", "[vlc]\ntransmit_power = -1", [], "[vlc] transmit_power"),
]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestParseConfig:
    def test_minimal_config_gets_defaults(self):
        spec = parse_config("[traffic]\nrates = 0.3, 0.4, 0.2, 0.1\n")
        assert spec.config.n_channels == 100
        assert spec.config.guard == 10
        assert spec.config.mu == pytest.approx(1 / 120)
        assert spec.config.window_n == 100
        assert spec.rates == (0.3, 0.4, 0.2, 0.1)

    def test_guard_exceeding_channels_rejected(self):
        with pytest.raises(ConfigError, match="guard"):
            parse_config("[system]\nchannels = 5\nguard = 6\n")

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigError, match=r"\[traffic\] rates"):
            parse_config("[traffic]\nrates = 0.3, -0.1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match=r"\[system\] bogus"):
            parse_config("[system]\nbogus = 1\n")
        with pytest.raises(ConfigError, match=r"\[traffic\] names: unknown key"):
            parse_config("[traffic]\nrates = 0.3, 0.3\nnames = voice, data\n")

    def test_readme_example_parses(self):
        # a key the README documents must be one the parser takes
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        spec = parse_config(block)
        assert spec.ratio == (3.0, 4.0, 2.0, 1.0)
        assert spec.lambda_total_grid == (0.5, 0.667, 0.833, 1.0)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown section"):
            parse_config("[wat]\nx = 1\n")

    def test_non_increasing_grid_rejected(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            parse_config("[sweep]\nlambda_total = 0.5, 0.5, 0.7\n")

    def test_type_mismatch_reports_field(self):
        with pytest.raises(ConfigError, match=r"\[system\] channels"):
            parse_config("[system]\nchannels = many\n")


class TestCliModes:
    def test_analyze_outputs(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(ANALYZE_INI)
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out / "blocking.csv")
        assert rows[0] == [
            "lambda_T", "B_1", "B_2", "B_3", "B_4",
            "utilization", "B_sharing", "util_sharing",
        ]
        assert len(rows) == 4
        # per-class blocking is monotone in class index on every row
        for row in rows[1:]:
            bs = [float(x) for x in row[1:5]]
            assert bs == sorted(bs)
        part = read_csv(out / "partition_trace.csv")
        assert part[1][1:] == ["10", "7", "5", "2"]
        assert (out / "manifest.txt").exists()

    def test_partition_staircase_sweep(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[traffic]\nrates = 0.3, 0.4, 0.2, 0.1\n"
            "[sweep]\nlambda_1 = 0.1, 0.3, 0.5\n"
        )
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
        part = read_csv(out / "partition_trace.csv")
        assert part[0] == ["lambda_1", "y_1", "y_2", "y_3", "y_4"]
        by_l1 = {row[0]: row[1:] for row in part[1:]}
        assert by_l1["0.3"] == ["10", "7", "3", "1"]

    def test_simulate_byte_identical_reruns(self, tmp_path):
        cfg = tmp_path / "sim.ini"
        cfg.write_text(SIM_INI)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ["blocking.csv", "utilization.csv", "partition_trace.csv",
                     "events.csv", "manifest.txt"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_compare_outputs(self, tmp_path):
        cfg = tmp_path / "sim.ini"
        cfg.write_text("[traffic]\nrates = 0.3,0.3\n[simulation]\narrivals = 5000\n")
        out = tmp_path / "out"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out / "blocking.csv")
        policies = {row[1] for row in rows[1:]}
        assert policies == {"dynamic", "sharing"}

    def test_sweep_mode(self, tmp_path):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(
            "[system]\nchannels = 10\nguard = 2\nholding_time = 1\n"
            "[traffic]\nratio = 1,1\n"
            "[sweep]\nlambda_total = 4, 8\n"
            "[simulation]\narrivals = 20000\nbypass_estimator = true\n"
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out / "blocking.csv")
        assert rows[0][-1] == "analytic_blocking"
        assert len(rows) == 5  # 2 points x 2 classes + header

    def test_vlc_link_mode(self, tmp_path):
        cfg = tmp_path / "vlc.ini"
        cfg.write_text("[vlc]\nhalf_power_angle = 60\ndistance = 2\n")
        out = tmp_path / "out"
        assert main(["vlc-link", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out / "link_budget.csv")
        record = dict(zip(rows[0], rows[1]))
        assert float(record["channel_gain"]) == pytest.approx(2.387e-5, rel=1e-3)
        bands = read_csv(out / "color_bands.csv")
        assert len(bands) == 8

    def test_config_error_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[system]\nchannels = -3\n")
        assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "mode,lines,args,path",
        BAD_FIELDS,
        ids=[" ".join(args) or lines.split("\n")[-1] for _, lines, args, _ in BAD_FIELDS],
    )
    def test_bad_field_exits_2_with_path(self, tmp_path, capsys, mode, lines, args, path):
        cfg = tmp_path / "bad.ini"
        traffic = "" if "[traffic]" in lines else "[traffic]\nrates = 0.3, 0.3\n"
        cfg.write_text(f"{traffic}{lines}\n")
        argv = [mode, "--config", str(cfg), "--out", str(tmp_path / "o"), *args]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a flag before main returns
            code = exc.code
        assert code == 2
        assert path in capsys.readouterr().err

    def test_compare_records_no_events(self, tmp_path, monkeypatch):
        results = []
        compare_policies = cli.compare_policies

        def spy(scenario):
            results.extend(compare_policies(scenario))
            return results[-2:]

        monkeypatch.setattr(cli, "compare_policies", spy)
        cfg = tmp_path / "sim.ini"
        cfg.write_text(
            "[traffic]\nrates = 0.3,0.3\n[simulation]\narrivals = 2000\nevents = true\n"
        )
        out = tmp_path / "out"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        assert not (out / "events.csv").exists()
        assert len(results) == 2
        assert all(metrics.events is None for metrics in results)

    def test_runtime_fault_exits_3(self, tmp_path, monkeypatch, capsys):
        # one 0.0 arrival gap repeats an arrival time, which the window
        # estimator rejects at run time
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: _ZeroGapRng(default_rng(seed)))
        cfg = tmp_path / "sim.ini"
        cfg.write_text("[traffic]\nrates = 0.3,0.3\n[simulation]\narrivals = 2000\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert "strictly increasing" in capsys.readouterr().err

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["analyze", "--config", str(tmp_path / "nope.ini")]) == 2

    def test_cli_overrides(self, tmp_path):
        cfg = tmp_path / "sim.ini"
        cfg.write_text("[traffic]\nrates = 0.3,0.3\n[simulation]\narrivals = 99\n")
        out = tmp_path / "out"
        assert main([
            "simulate", "--config", str(cfg), "--out", str(out),
            "--arrivals", "5000", "--seed", "42", "--policy", "sharing",
        ]) == 0
        manifest = (out / "manifest.txt").read_text()
        assert "simulation.arrivals=5000" in manifest
        assert "simulation.seed=42" in manifest
        assert "simulation.policy=sharing" in manifest
