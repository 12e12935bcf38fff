"""Golden outputs: fixed-seed `simulate` runs must reproduce these CSV
digests byte for byte. They were recorded before the event loop's fast path
(per-class estimate updates, inline guard floors, Python-float draws), so a
speed-up that changes a single draw, decision or formatted digit fails here.

The `analyze` and `sweep` digests were recorded with the one-point-at-a-time
analyzer, before it solved the whole sweep as one grid.
"""

import hashlib

import numpy as np
import pytest

from qosguard import simulate
from qosguard.cli import main

DYNAMIC_INI = """
[system]
channels = 20
guard = 4
holding_time = 1
window = 30

[traffic]
rates = 9, 12, 6, 3

[simulation]
arrivals = 20000
trace_stride = 50
seed = 4
"""

GOLDEN = {
    "dynamic-estimator": (
        DYNAMIC_INI,
        {
            "blocking.csv": "15d2f49a85714406d7dc94d565babd322d695e6b1743e1a03b6b8293cf98149e",
            "partition_trace.csv": "22d4bb983c82b5a260ed72782a52f3de444d07cd3feaa9062beed7a706c5e1e5",
            "utilization.csv": "ad4b7ca7f68a69f8fec21d589b9e86d8a589c014ac807b0be4205619d85235cf",
        },
    ),
    "dynamic-bypass": (
        DYNAMIC_INI + "bypass_estimator = true\n",
        {
            "blocking.csv": "54a205194be4d65bd0cdce651880b2914f272a98e753f940f5b2622a42e879bb",
            "partition_trace.csv": "1cb0062c4c6344d1f41c2f70754f4e2a83afc7ab2b24f226b58cef79b4c7d2d5",
            "utilization.csv": "7e2bc164407237a4f0308c2d100653c53ceb669714d121c41e327e3e41d90f25",
        },
    ),
    "sharing-events": (
        "[traffic]\nrates = 0.3, 0.4, 0.2, 0.1\n"
        "[simulation]\narrivals = 5000\npolicy = sharing\nevents = true\nseed = 8\n",
        {
            "blocking.csv": "f02c1f26b54c4c0cec4414fd105a730e9142ba53cb16aa6429fcca0fdbc701eb",
            "events.csv": "f61386d724fb13eb133766a7560573057f6a3335b786454031976ef9d089c5c7",
            "partition_trace.csv": "767390477d0c2a2fe3512bfcdb76b1a1b9ae0d5039e5a5da854d0526b7425a80",
            "utilization.csv": "8172284aaa14f38421b154e3b28179abde25cd08d2714577995610b31196ad07",
        },
    ),
}


def _grid(low, high, points) -> str:
    step = (high - low) / (points - 1)
    return ", ".join(repr(low + k * step) for k in range(points))


_MU = 1.0 / 120.0

ANALYZE_GOLDEN = {
    # the benchmark's sweep: N=1000, ratio 3:4:2:1, 1000 points from 0.6 N
    # to 1.2 N Erlangs
    "lambda-total-n1000": (
        "[system]\nchannels = 1000\nguard = 100\nholding_time = 120.0\n"
        "[traffic]\nratio = 3.0, 4.0, 2.0, 1.0\n"
        f"[sweep]\nlambda_total = {_grid(1000 * 0.6 * _MU, 1000 * 1.2 * _MU, 1000)}\n",
        {
            "blocking.csv": "06fd12257700677572de0d0958f12bd5982fcc0dd84726fe3b74070501efbd9f",
            "partition_trace.csv": "ad07a6826d340a194cdc15c457cb3eee0b5810d2cb321951fc270c26e30ed679",
            "utilization.csv": "8f80e1d5425d5752a102856289346b94a3dd78f854ac1a288b97e2f58a5d0c24",
        },
    ),
    # the limits change from row to row, and class 3 has rate 0
    "lambda-1-staircase": (
        "[system]\nchannels = 100\nguard = 10\nholding_time = 120\n"
        "[traffic]\nrates = 0.3, 0.4, 0.0, 0.1\n"
        f"[sweep]\nlambda_1 = {_grid(0.0, 1.5, 61)}\n",
        {
            "blocking.csv": "6ef42d26a89fe6e169252e683338fd734d65e6734d9e7c8f46d40a6c88454309",
            "partition_trace.csv": "b86d9e8b5ec77d5600c16709c9212fce37d245368e87f53e1789409b645bcef6",
            "utilization.csv": "caa93d17fdb6c9e5f4e7cc688cf4a83973b8b1d54ce7de204ee17421c8af2614",
        },
    ),
    "grid-from-zero": (
        "[system]\nchannels = 50\nguard = 6\nholding_time = 1\n"
        "[traffic]\nratio = 1, 2, 3\n"
        f"[sweep]\nlambda_total = {_grid(0.0, 100.0, 41)}\n",
        {
            "blocking.csv": "0d538d4050b169f06cf7aa57a7d0001f0bfb162b029a6b3ff8a6b54067983ba2",
            "partition_trace.csv": "6d336473d496fc023b399bcc6dfc9ce7fb47085217e38a85419909d74faacdba",
            "utilization.csv": "ef2ed97c618d2bf6d19c5acb6cf28a1b157ac76fd17a0f41778588c311cb64bd",
        },
    ),
    "zero-rates": (
        "[traffic]\nrates = 0, 0\n",
        {
            "blocking.csv": "5dcc738b733b636a8c253fab902a4322f99046e5908bebba6e43ca8e82413962",
            "partition_trace.csv": "a788954e695776f5dbf8009e96ba31656f03c3982b9f2b31c84b85d5ff05f563",
            "utilization.csv": "d7150c6729a4171c278dd61d097378e64e0f7ce428311e5c8c5ec0f5af35579a",
        },
    ),
}

SWEEP_GOLDEN = {
    "sweep-lambda-1": (
        "[system]\nchannels = 20\nguard = 4\nholding_time = 1\nwindow = 30\n"
        "[traffic]\nrates = 3, 4, 2\n[sweep]\nlambda_1 = 1, 2, 4\n"
        "[simulation]\narrivals = 4000\nreplications = 2\nseed = 5\n",
        {
            "blocking.csv": "eb140b4f6af01baa0bdb334890ee108dae0e1a5f8f8cc71df7a308056ca7684e",
            "utilization.csv": "a7c2ae4b59061ff384497741d2fd9822577cb94718920a5e5ebaeef5ee1e499a",
        },
    ),
}


def csv_digests(tmp_path, text, mode="simulate") -> dict[str, str]:
    cfg = tmp_path / "golden.ini"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main([mode, "--config", str(cfg), "--out", str(out)]) == 0
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.glob("*.csv"))
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_simulate_csv_digests(tmp_path, name):
    text, expected = GOLDEN[name]
    assert csv_digests(tmp_path, text) == expected


@pytest.mark.parametrize("name", sorted(ANALYZE_GOLDEN))
def test_analyze_csv_digests(tmp_path, name):
    text, expected = ANALYZE_GOLDEN[name]
    assert csv_digests(tmp_path, text, "analyze") == expected


@pytest.mark.parametrize("name", sorted(SWEEP_GOLDEN))
def test_sweep_csv_digests(tmp_path, name):
    text, expected = SWEEP_GOLDEN[name]
    assert csv_digests(tmp_path, text, "sweep") == expected


def test_holding_draws_chunk_size_does_not_change_draws(monkeypatch):
    # a class's holding times come in chunks with its arrival gaps; at any
    # chunk size they are the generator's one-at-a-time draws
    arrival_seed, _, hold_seed = np.random.SeedSequence(123).spawn(3)
    one_at_a_time = np.random.default_rng(hold_seed)
    expected = [float(one_at_a_time.exponential(2.5)) for _ in range(20_000)]
    for chunk in (512, 8192):
        monkeypatch.setattr(simulate, "_RNG_CHUNK", chunk)
        stream = simulate._ClassStream(0, 1.0, arrival_seed, hold_seed, 2.5, None)
        while len(stream.holds) < 20_000:
            stream.refill()
        assert stream.holds[:20_000].tolist() == expected
