"""Golden outputs: fixed-seed `simulate` runs must reproduce these CSV
digests byte for byte. They were recorded before the event loop's fast path
(per-class estimate updates, inline guard floors, Python-float draws), so a
speed-up that changes a single draw, decision or formatted digit fails here.
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


def csv_digests(tmp_path, text) -> dict[str, str]:
    cfg = tmp_path / "golden.ini"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.glob("*.csv"))
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_simulate_csv_digests(tmp_path, name):
    text, expected = GOLDEN[name]
    assert csv_digests(tmp_path, text) == expected


def test_exp_stream_chunk_size_does_not_change_draws(monkeypatch):
    seed = np.random.SeedSequence(123).spawn(3)[2]
    streams = {}
    for chunk in (512, 8192):
        monkeypatch.setattr(simulate, "_RNG_CHUNK", chunk)
        stream = simulate._ExpStream(seed, 2.5)
        streams[chunk] = [stream.next() for _ in range(20_000)]
    assert streams[512] == streams[8192]
