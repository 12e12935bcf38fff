"""Experiment configuration: flat INI-style key/value files with one section
per concern, validated into an ExperimentSpec with field-path diagnostics."""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .allocator import SystemConfig
from .markov import total_rate
from .simulate import POLICY_DYNAMIC, POLICY_SHARING
from .vlc import OpticalLinkParams

MODES = ("analyze", "simulate", "compare", "sweep", "vlc-link")

# paper-scale defaults: 100 channels, guard pool 10, 120 s mean holding time,
# 100-gap estimator windows
DEFAULT_CHANNELS = 100
DEFAULT_GUARD = 10
DEFAULT_HOLDING_TIME = 120.0
DEFAULT_WINDOW = 100


class ConfigError(Exception):
    """Invalid experiment configuration; message carries the field path."""


def _simulation_key(default):
    """A spec field read from, and written back to, the [simulation] section."""
    return field(default=default, metadata={"section": "simulation"})


@dataclass(frozen=True)
class ExperimentSpec:
    config: SystemConfig
    rates: tuple[float, ...] | None
    ratio: tuple[float, ...] | None = None
    lambda_total_grid: tuple[float, ...] | None = None
    lambda_1_grid: tuple[float, ...] | None = None
    arrivals: int = _simulation_key(1_000_000)
    warmup: float = _simulation_key(0.1)
    policy: str = _simulation_key(POLICY_DYNAMIC)
    bypass_estimator: bool = _simulation_key(False)
    replications: int = _simulation_key(1)
    trace_stride: int = _simulation_key(1000)
    events: bool = _simulation_key(False)
    seed: int = _simulation_key(0)
    vlc: OpticalLinkParams = field(default_factory=OpticalLinkParams)

    def __post_init__(self):
        # runs again on every dataclasses.replace, so CLI overrides are checked too
        errors = []
        if self.arrivals < 1:
            errors.append("[simulation] arrivals: must be >= 1")
        if not 0 <= self.warmup < 1:
            errors.append("[simulation] warmup: must be in [0, 1)")
        if self.policy not in (POLICY_DYNAMIC, POLICY_SHARING):
            errors.append(f"[simulation] policy: must be dynamic or sharing, got {self.policy!r}")
        if self.replications < 1:
            errors.append("[simulation] replications: must be >= 1")
        if self.trace_stride < 1:
            errors.append("[simulation] trace_stride: must be >= 1")
        if self.seed < 0:
            errors.append("[simulation] seed: must be >= 0")
        if errors:
            raise ConfigError("; ".join(errors))


_SIMULATION_FIELDS = tuple(
    f for f in fields(ExperimentSpec) if f.metadata.get("section") == "simulation"
)

_KNOWN_KEYS = {
    "system": {"channels", "guard", "mu", "holding_time", "window"},
    "traffic": {"rates", "ratio"},
    "sweep": {"lambda_total", "lambda_1"},
    "simulation": {f.name for f in _SIMULATION_FIELDS},
    "vlc": {f.name for f in fields(OpticalLinkParams)},
}


def _get(parser, section, key, conv, default, errors):
    if not parser.has_option(section, key):
        return default
    raw = parser.get(section, key)
    try:
        return conv(raw)
    except (ValueError, TypeError):
        errors.append(f"[{section}] {key}: cannot parse {raw!r}")
        return default


def _float_list(raw: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty list")
    return tuple(float(p) for p in parts)


def _finite_non_negative(values) -> bool:
    """Every entry finite and >= 0, and a finite sum."""
    return all(math.isfinite(v) and v >= 0 for v in values) and math.isfinite(sum(values))


def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


# a key's parser follows the type of its default
_PARSERS = {bool: _bool, str: str.strip}


def parse_config(text: str) -> ExperimentSpec:
    """Parse and validate an experiment config; raises ConfigError on any issue."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unparseable config: {exc}") from exc

    errors: list[str] = []
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            errors.append(f"unknown section [{section}]")
            continue
        for key in parser.options(section):
            if key not in _KNOWN_KEYS[section]:
                errors.append(f"[{section}] {key}: unknown key")

    channels = _get(parser, "system", "channels", int, DEFAULT_CHANNELS, errors)
    guard = _get(parser, "system", "guard", int, DEFAULT_GUARD, errors)
    holding = _get(parser, "system", "holding_time", float, None, errors)
    mu = _get(parser, "system", "mu", float, None, errors)
    if mu is not None and holding is not None:
        errors.append("[system] mu and holding_time are mutually exclusive")
    if holding is not None and not (math.isfinite(holding) and holding > 0):
        errors.append("[system] holding_time: must be finite and > 0")
        holding = None
    if mu is None:
        mu = 1.0 / (DEFAULT_HOLDING_TIME if holding is None else holding)
    window = _get(parser, "system", "window", int, DEFAULT_WINDOW, errors)

    rates = _get(parser, "traffic", "rates", _float_list, None, errors)
    ratio = _get(parser, "traffic", "ratio", _float_list, None, errors)
    if rates is not None and not _finite_non_negative(rates):
        errors.append("[traffic] rates: entries must be finite and >= 0 with a finite sum")
    if ratio is not None and not (_finite_non_negative(ratio) and sum(ratio) > 0):
        errors.append(
            "[traffic] ratio: entries must be finite and >= 0 with a positive, finite sum"
        )

    lambda_total_grid = _get(parser, "sweep", "lambda_total", _float_list, None, errors)
    lambda_1_grid = _get(parser, "sweep", "lambda_1", _float_list, None, errors)
    for key, grid in (("lambda_total", lambda_total_grid), ("lambda_1", lambda_1_grid)):
        if grid is None:
            continue
        if not _finite_non_negative(grid):
            errors.append(f"[sweep] {key}: entries must be finite and >= 0 with a finite sum")
        elif any(b <= a for a, b in zip(grid, grid[1:])):
            errors.append(f"[sweep] {key}: grid must be strictly increasing")

    simulation = {
        f.name: _get(
            parser, "simulation", f.name, _PARSERS.get(type(f.default), type(f.default)),
            f.default, errors,
        )
        for f in _SIMULATION_FIELDS
    }

    try:
        config = SystemConfig(n_channels=channels, guard=guard, mu=mu, window_n=window)
    except ValueError as exc:
        errors.append(f"[system] {exc}")
        config = None

    vlc_values = {}
    for f in fields(OpticalLinkParams):
        val = _get(parser, "vlc", f.name, float, None, errors)
        if val is not None:
            vlc_values[f.name] = val
    try:
        vlc = OpticalLinkParams(**vlc_values)
    except ValueError as exc:
        errors.append(f"[vlc] {exc}")
        vlc = OpticalLinkParams()

    try:
        spec = ExperimentSpec(
            config=config,
            rates=rates,
            ratio=ratio,
            lambda_total_grid=lambda_total_grid,
            lambda_1_grid=lambda_1_grid,
            vlc=vlc,
            **simulation,
        )
    except ConfigError as exc:
        errors.append(str(exc))
    if not errors:
        errors = _offered_load_errors(spec)
    if errors:
        raise ConfigError("; ".join(errors))
    return spec


def sweep_points(spec: ExperimentSpec) -> tuple[str, tuple[float, ...], np.ndarray]:
    """The analytic sweep as (label, swept value of each point, P x M rate
    grid), one row per point: a ``lambda_1`` grid over the fixed classes of
    ``rates``, else a ``lambda_total`` grid split by ``ratio`` (or by
    ``rates``), else the single point ``rates``."""
    if spec.lambda_1_grid is not None:
        if spec.rates is None:
            raise ConfigError(
                "[sweep] lambda_1 sweep needs [traffic] rates for the fixed classes"
            )
        rates = np.empty((len(spec.lambda_1_grid), len(spec.rates)))
        rates[:] = spec.rates
        rates[:, 0] = spec.lambda_1_grid
        return "lambda_1", spec.lambda_1_grid, rates
    if spec.lambda_total_grid is not None:
        ratio = spec.ratio if spec.ratio is not None else spec.rates
        if ratio is None or not sum(ratio) > 0:
            raise ConfigError(
                "[sweep] lambda_total sweep needs [traffic] ratio or rates with a positive sum"
            )
        # rate_m = ratio_m / sum(ratio) * lambda_total
        shares = np.array(ratio) / sum(ratio)
        return "lambda_T", spec.lambda_total_grid, np.outer(spec.lambda_total_grid, shares)
    if spec.rates is None:
        raise ConfigError("[traffic] rates required when no sweep grid is given")
    return "lambda_T", (sum(spec.rates),), np.array([spec.rates])


def _offered_load_errors(spec: ExperimentSpec) -> list[str]:
    """Every point a mode can run, the rates and each sweep point, needs a
    finite offered load, total rate x holding time, which finite entries
    with a finite sum do not ensure."""
    sources = []
    if spec.rates is not None:
        sources.append(("[traffic] rates", np.array([spec.rates])))
    if spec.lambda_1_grid is not None or spec.lambda_total_grid is not None:
        key = "lambda_1" if spec.lambda_1_grid is not None else "lambda_total"
        try:
            sources.append((f"[sweep] {key}", sweep_points(spec)[2]))
        except ConfigError:
            pass  # reported by the mode that runs the sweep
    errors = []
    for path, rates in sources:
        with np.errstate(over="ignore"):
            offered = total_rate(rates) / spec.config.mu
        bad = np.flatnonzero(~np.isfinite(offered))
        if bad.size:
            errors.append(
                f"{path}: total rate x holding time overflows at point {bad[0] + 1}, "
                f"rates {tuple(rates[bad[0]].tolist())}"
            )
    return errors


def _manifest_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, tuple):
        return ",".join(repr(v) for v in value)
    if isinstance(value, str):
        return value
    return repr(value)


def render_manifest(spec: ExperimentSpec, mode: str) -> str:
    """Full resolved spec as sorted key=value lines; rerunning from these
    values reproduces every output byte."""
    values = {
        "mode": mode,
        "system.channels": spec.config.n_channels,
        "system.guard": spec.config.guard,
        "system.mu": spec.config.mu,
        "system.window": spec.config.window_n,
        "traffic.rates": spec.rates,
        "traffic.ratio": spec.ratio,
        "sweep.lambda_total": spec.lambda_total_grid,
        "sweep.lambda_1": spec.lambda_1_grid,
    }
    for f in _SIMULATION_FIELDS:
        values[f"simulation.{f.name}"] = getattr(spec, f.name)
    for f in fields(spec.vlc):
        values[f"vlc.{f.name}"] = getattr(spec.vlc, f.name)
    return "".join(f"{k}={_manifest_value(values[k])}\n" for k in sorted(values))
