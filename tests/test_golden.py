"""Golden outputs: fixed-seed `simulate` runs must reproduce these CSV
digests byte for byte. They were recorded before the event loop's fast path
(per-class estimate updates, inline guard floors, Python-float draws), so a
speed-up that changes a single draw, decision or formatted digit fails here.

The `analyze` and `sweep` digests were recorded with the one-point-at-a-time
analyzer, before it solved the whole sweep as one grid. The `compare` and
`vlc-link` digests were recorded while every CSV row still went through
`csv.writer` one value at a time, before rows were formatted in blocks.

The `manifest.txt` digests of every config were recorded while the config
module still listed each section's keys by hand, in its known keys, its
reads and the manifest, before one key table took their place. Beside
them, each manifest is turned back into a config, which must parse to the
same spec and render the same manifest, the rerun the README promises.
"""

import hashlib

import numpy as np
import pytest
from oracles import manifest_to_ini

from qosguard import cli, simulate
from qosguard.cli import main
from qosguard.config import parse_config, render_manifest

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

COMPARE_GOLDEN = {
    "compare-2-reps": (
        "[system]\nchannels = 20\nguard = 4\nholding_time = 1\nwindow = 30\n"
        "[traffic]\nrates = 9, 12, 6, 3\n"
        "[simulation]\narrivals = 6000\nreplications = 2\nseed = 6\n",
        {
            "blocking.csv": "f3538e9f4ece3d51ab82031047ca84720241a7364548545ce2489a0efd179b21",
            "utilization.csv": "83f6a274436f6f77cf5e5cc5c91fa9cba0c1a8ccc04d8b0e222909c9e36725ba",
        },
    ),
}

_BANDS_DIGEST = "3233fb5e2616013fc84fa7bc679da5f35e3ecbb913b99081cf42e417d40ab06e"

VLC_GOLDEN = {
    "default-link": (
        "[vlc]\n",
        {
            "color_bands.csv": _BANDS_DIGEST,
            "link_budget.csv": "2a001ae0ce7b4c74788f399011113bfaff7756cf67bd3f6ddaded7b682c09888",
        },
    ),
    # every entry moved off its default
    "off-axis": (
        "[vlc]\nhalf_power_angle = 30\ndetector_area = 1e-5\ndistance = 1.25\n"
        "irradiance_angle = 15\nincidence_angle = 20\nfilter_coeff = 0.8\n"
        "refractive_index = 1.7\ntransmit_power = 2.5\n",
        {
            "color_bands.csv": _BANDS_DIGEST,
            "link_budget.csv": "fd28d069df68d9e0a1c0f75b9e4c3ec974a3e0fe952d00f80911e6d67a19b972",
        },
    ),
    # the receiver is outside the field of view: gain and power are 0
    "outside-fov": (
        "[vlc]\nhalf_power_angle = 45\ndistance = 3.5\nincidence_angle = 70\n"
        "fov = 60\ntransmit_power = 0\n",
        {
            "color_bands.csv": _BANDS_DIGEST,
            "link_budget.csv": "cc464a1a9ce73257701c46f901a1e22bed0ddcc82473265b635e8e2a1f112bbc",
        },
    ),
}


MANIFEST_DIGESTS = {
    ("simulate", "dynamic-bypass"):
        "6c2bf7fd61708ae5e18d34e025e88803f9a5152361c8e3b5464aa84378a36513",
    ("simulate", "dynamic-estimator"):
        "bd310060536b8a2495051a5459cedeb566ae20a4e2ae8ded1a4cc4e87b0dba7c",
    ("simulate", "sharing-events"):
        "1b8ca6444046c244fa8985b82cda99ebf4f51404430e33887304e7248dc38c66",
    ("analyze", "grid-from-zero"):
        "bf77fd2560d1fbcea62d5c271b8410a6db92eb7a8dc4f128d9c0473b24669fa4",
    ("analyze", "lambda-1-staircase"):
        "e0acfc0b5c65899fea987aefc318f7a63e893c00393159176728e68983ffb3b3",
    ("analyze", "lambda-total-n1000"):
        "9f3e7d32be35195e2d9841159e6639cebfb34cb6fb4b6343e5b2e05a10734228",
    ("analyze", "zero-rates"):
        "c60e5dca36be0065399b275cc51a48064f9fa9d46a5bc4142e401f1b67249c44",
    ("sweep", "sweep-lambda-1"):
        "682361a7ebaef392dfd061e4cc7fa1051830bddf030578e3845039e3d7c0b48d",
    ("compare", "compare-2-reps"):
        "8195371cdf73fac11e3f0478c8dc475170ca7212d15b3fb134619529325c4fe0",
    ("vlc-link", "default-link"):
        "1e1d9338c5cfb0a370fa2bc9690b8ed76819cb4beb229f039825efbc37395e1f",
    ("vlc-link", "off-axis"):
        "d561e77e59506111084200e9e16e13bb569b57c6890fd19719c646bc0c412f94",
    ("vlc-link", "outside-fov"):
        "2ba86192a9c60c5b3b72904154a63e700cbbad3a054115b5d530b96b5c44824e",
}

_CONFIGS = {
    "simulate": GOLDEN,
    "analyze": ANALYZE_GOLDEN,
    "sweep": SWEEP_GOLDEN,
    "compare": COMPARE_GOLDEN,
    "vlc-link": VLC_GOLDEN,
}

OVERRIDES = ["--seed", "11", "--arrivals", "3000", "--policy", "sharing"]


def manifest_only(monkeypatch, tmp_path, mode, text, args=()):
    """The spec that ``main`` runs for ``text`` and ``args``, and the
    manifest it writes, with the mode's own outputs left out."""
    specs = []
    monkeypatch.setitem(cli._MODE_RUNNERS, mode, lambda spec, out: specs.append(spec))
    cfg = tmp_path / "golden.ini"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main([mode, "--config", str(cfg), "--out", str(out), *args]) == 0
    return specs[0], (out / "manifest.txt").read_text()


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


@pytest.mark.parametrize("name", sorted(COMPARE_GOLDEN))
def test_compare_csv_digests(tmp_path, name):
    text, expected = COMPARE_GOLDEN[name]
    assert csv_digests(tmp_path, text, "compare") == expected


@pytest.mark.parametrize("name", sorted(VLC_GOLDEN))
def test_vlc_link_csv_digests(tmp_path, name):
    text, expected = VLC_GOLDEN[name]
    assert csv_digests(tmp_path, text, "vlc-link") == expected


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


@pytest.mark.parametrize("mode,name", sorted(MANIFEST_DIGESTS))
def test_manifest_digests(monkeypatch, tmp_path, mode, name):
    _, manifest = manifest_only(monkeypatch, tmp_path, mode, _CONFIGS[mode][name][0])
    assert hashlib.sha256(manifest.encode()).hexdigest() == MANIFEST_DIGESTS[mode, name]


@pytest.mark.parametrize("args", [[], OVERRIDES], ids=["config", "overrides"])
@pytest.mark.parametrize("mode,name", sorted(MANIFEST_DIGESTS))
def test_manifest_reruns_to_the_same_spec(monkeypatch, tmp_path, mode, name, args):
    spec, manifest = manifest_only(monkeypatch, tmp_path, mode, _CONFIGS[mode][name][0], args)
    rerun = parse_config(manifest_to_ini(manifest))
    assert rerun == spec
    assert render_manifest(rerun, mode) == manifest
