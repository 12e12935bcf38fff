"""Experiment configuration: flat INI-style key/value files with one section
per concern, validated into an ExperimentSpec with field-path diagnostics.

``KEYS`` describes every key once. The known keys, the reads, the field paths
of the errors and the manifest lines all come from it."""

from __future__ import annotations

import configparser
import math
import re
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .allocator import SystemConfig
from .markov import total_rate
from .simulate import SimScenario, finite_non_negative
from .vlc import OpticalLinkParams

# a 120 s mean holding time unless [system] gives mu or holding_time
DEFAULT_HOLDING_TIME = 120.0


class ConfigError(Exception):
    """Invalid experiment configuration; message carries the field path."""


def _float_list(raw: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty list")
    return tuple(float(p) for p in parts)


def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


# a key's parser follows the type of its default
_PARSERS = {bool: _bool, str: str.strip}


def _key(section, default=None, *, key=None, parse=None, check=None, rule=""):
    """A spec field read from, and written back to, ``[section] key``, the
    field's name unless ``key`` is given. A value other than None must pass
    ``check``; ``rule`` says what the check asks for."""
    parse = parse or _PARSERS.get(type(default), type(default))
    return field(
        default=default,
        metadata={"section": section, "key": key, "parse": parse, "check": check, "rule": rule},
    )


_RUN_FIELDS = {f.name: f for f in fields(SimScenario)}


def _run_key(name, section="simulation", **changes):
    """The key of ``SimScenario`` field ``name``, with the field's default,
    check and rule unless ``changes`` give others."""
    f = _RUN_FIELDS[name]
    return _key(section, **{"default": f.default, **f.metadata, **changes})


_GRID = dict(
    parse=_float_list,
    check=lambda g: finite_non_negative(g) and all(b > a for a, b in zip(g, g[1:])),
    rule="entries must be finite, >= 0 and strictly increasing, with a finite sum",
)


@dataclass(frozen=True)
class ExperimentSpec:
    config: SystemConfig
    rates: tuple[float, ...] | None = _run_key("rates", "traffic", default=None,
                                               parse=_float_list)
    ratio: tuple[float, ...] | None = _key(
        "traffic", parse=_float_list, check=lambda r: finite_non_negative(r) and sum(r) > 0,
        rule="entries must be finite and >= 0 with a positive, finite sum",
    )
    lambda_total_grid: tuple[float, ...] | None = _key("sweep", key="lambda_total", **_GRID)
    lambda_1_grid: tuple[float, ...] | None = _key("sweep", key="lambda_1", **_GRID)
    arrivals: int = _run_key("arrivals")
    warmup: float = _run_key("warmup")
    policy: str = _run_key("policy")
    bypass_estimator: bool = _run_key("bypass_estimator")
    replications: int = _key("simulation", 1, check=lambda v: v >= 1, rule="must be >= 1")
    trace_stride: int = _run_key("trace_stride")
    events: bool = _key("simulation", False)
    seed: int = _run_key("seed")
    vlc: OpticalLinkParams = field(default_factory=OpticalLinkParams)

    def __post_init__(self):
        # runs again on every dataclasses.replace, so CLI overrides are checked too
        errors = []
        for f in fields(self):
            value, check = getattr(self, f.name), f.metadata.get("check")
            if check is not None and value is not None and not check(value):
                k = _KEY_OF_ATTR[f.name]
                got = "" if isinstance(value, tuple) else f", got {value!r}"
                errors.append(f"[{k.section}] {k.key}: {f.metadata['rule']}{got}")
        if self.lambda_1_grid is not None and self.lambda_total_grid is not None:
            errors.append("[sweep] lambda_1 and lambda_total are mutually exclusive")
        if errors:
            raise ConfigError("; ".join(errors))


class Key(NamedTuple):
    """One config key: where it is read, how, its default, and the dotted
    ``ExperimentSpec`` attribute it sets (None for ``holding_time``)."""

    section: str
    key: str
    parse: Callable[[str], object]
    default: object
    attr: str | None


# every key of every section, in the order the parser reads them; [system]
# is spelled out because SystemConfig, a library type, has no defaults: the
# paper-scale 100 channels, guard pool 10 and 100-gap estimator windows
KEYS = (
    Key("system", "channels", int, 100, "config.n_channels"),
    Key("system", "guard", int, 10, "config.guard"),
    Key("system", "mu", float, None, "config.mu"),
    Key("system", "holding_time", float, None, None),  # resolves into mu
    Key("system", "window", int, 100, "config.window_n"),
    *(
        Key(f.metadata["section"], f.metadata["key"] or f.name, f.metadata["parse"], f.default,
            f.name)
        for f in fields(ExperimentSpec)
        if "section" in f.metadata
    ),
    *(Key("vlc", f.name, float, f.default, f"vlc.{f.name}") for f in fields(OpticalLinkParams)),
)

_KEY_OF_ATTR = {k.attr: k for k in KEYS}
# the library types that check their own fields, by the spec attribute that holds one
_LIBRARY_TYPES = {"config": SystemConfig, "vlc": OpticalLinkParams}


def _key_name(owner: str, word: str) -> str:
    """The config key that sets attribute ``word`` of ``owner``, or ``word``."""
    k = _KEY_OF_ATTR.get(f"{owner}.{word}")
    return word if k is None else k.key


def _read(parser, k: Key, errors: list[str]):
    if not parser.has_option(k.section, k.key):
        return k.default
    raw = parser.get(k.section, k.key)
    try:
        return k.parse(raw)
    except (ValueError, TypeError):
        errors.append(f"[{k.section}] {k.key}: cannot parse {raw!r}")
        return k.default


def parse_config(text: str) -> ExperimentSpec:
    """Parse and validate an experiment config; raises ConfigError on any issue."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unparseable config: {exc}") from exc

    errors: list[str] = []
    for section in parser.sections():
        known = {k.key for k in KEYS if k.section == section}
        if not known:
            errors.append(f"unknown section [{section}]")
            continue
        errors += [f"[{section}] {key}: unknown key" for key in parser.options(section)
                   if key not in known]

    # the values by the spec attribute they set, grouped by the object that holds it
    values: dict[str, dict] = {"": {}, "config": {}, "vlc": {}}
    for k in KEYS:
        if k.attr is None:
            holding = _read(parser, k, errors)
            continue
        owner, _, name = k.attr.rpartition(".")
        values[owner][name] = _read(parser, k, errors)

    system = values["config"]
    if system["mu"] is not None and holding is not None:
        errors.append("[system] mu and holding_time are mutually exclusive")
    if holding is not None and not (math.isfinite(holding) and holding > 0):
        errors.append("[system] holding_time: must be finite and > 0")
        holding = None
    if system["mu"] is None:
        system["mu"] = 1.0 / (DEFAULT_HOLDING_TIME if holding is None else holding)

    # a library type's ValueError opens with the failing attribute's name;
    # report it under the key that sets the attribute, with every attribute
    # the rule names spelled as its key
    for owner, cls in _LIBRARY_TYPES.items():
        try:
            values[""][owner] = cls(**values[owner])
        except ValueError as exc:
            name, _, rule = str(exc).partition(" ")
            k = _KEY_OF_ATTR[f"{owner}.{name}"]
            rule = re.sub(r"\w+", lambda w: _key_name(owner, w[0]), rule)
            errors.append(f"[{k.section}] {k.key}: {rule}")
            values[""][owner] = None

    try:
        spec = ExperimentSpec(**values[""])
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
    """Full resolved spec as sorted key=value lines, one per key that sets a
    spec attribute; rerunning from these values reproduces every output byte."""
    values = {f"{k.section}.{k.key}": attrgetter(k.attr)(spec) for k in KEYS if k.attr}
    values["mode"] = mode
    return "".join(f"{k}={_manifest_value(values[k])}\n" for k in sorted(values))
