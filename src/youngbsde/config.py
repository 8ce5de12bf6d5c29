"""Flat key=value experiment configuration.

One experiment kind per file, '#' comments, command-line overrides with the
same key names.  Every key is declared in the kind's schema with a type and
either a default or REQUIRED; unknown keys are rejected outright and numeric
preconditions are validated before any compute starts.  Shared keys are
declared once: `_batch(steps, samples)` (diffusion, horizon, steps, samples),
`_driver(space)` (driver_space, driver_time), `_HORIZON`, `_X0` and
`_AMPLITUDE`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .pde_fk import GROWTH_EXPONENTS

__all__ = ["Field", "REQUIRED", "ExperimentConfig", "parse_config",
           "SCHEMAS", "EXPERIMENT_KINDS"]

REQUIRED = object()


@dataclass(frozen=True)
class Field:
    kind: type
    default: object = REQUIRED
    check: callable = None


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_float(raw: str) -> float:
    value = float(raw)
    if math.isnan(value):  # passes every check; inf is allowed
        raise ValueError(f"not a number: {raw!r}")
    return value


def _parse_value(raw: str, kind: type):
    raw = raw.strip()
    if kind is bool:
        return _parse_bool(raw)
    if kind is int:
        return int(raw)
    if kind is float:
        return _parse_float(raw)
    if kind is str:
        return raw
    if kind is tuple:  # tuple of floats, comma separated
        return tuple(_parse_float(p) for p in raw.split(",")
                     if p.strip() != "")
    raise ConfigError(f"unsupported schema type {kind}")


_COMMON = {
    "seed": Field(int, 0, lambda v: v >= 0),
    "workers": Field(int, 1, lambda v: v >= 1),
}

_positive = lambda v: v > 0
_nonneg = lambda v: v >= 0
_nonempty = lambda v: len(v) > 0
# a finite horizon: inf would reach the time grids as non-finite times
_HORIZON = Field(float, 1.0, lambda v: 0 < v < math.inf)


def _batch(steps, samples):
    return {"diffusion": Field(str, "brownian"),
            "horizon": _HORIZON,
            "steps": Field(int, steps, lambda v: v >= 1),
            "samples": Field(int, samples, _positive)}


def _driver(space):
    return {"driver_space": Field(str, space),
            "driver_time": Field(str, "linear")}


_X0 = Field(float, 0.0)
_AMPLITUDE = Field(float, 1.0)

SCHEMAS: dict[str, dict[str, Field]] = {
    "simulate-fbs": {
        "h0": Field(float, REQUIRED, lambda v: 0 < v < 1),
        "h": Field(float, REQUIRED, lambda v: 0 < v < 1),
        "sdim": Field(int, 1, lambda v: v >= 1),
        "horizon": _HORIZON,
        "time_points": Field(int, 8, lambda v: v >= 1),
        "space_min": Field(float, 0.25),
        "space_max": Field(float, 2.0),
        "space_points": Field(int, 8, lambda v: v >= 1),
        "jitter": Field(float, -1.0),  # max jitter; negative = full ladder
    },
    "young-integral": {
        "integrand": Field(str, "sin"),
        "space_path": Field(str, "t"),
        **_driver("cos"),
        "amplitude": _AMPLITUDE,
        "horizon": _HORIZON,
        "steps": Field(int, 1024, lambda v: v >= 2),
        "lower": Field(float, 0.0, _nonneg),
        "upper": Field(float, 1.0, _positive),
        "tol_abs": Field(float, 1e-8, _positive),
        "tol_rel": Field(float, 1e-6, _nonneg),
        "max_levels": Field(int, 16, _positive),
    },
    "flow": {
        "n_dim": Field(int, 1, lambda v: v in (1, 2)),
        "alpha_kind": Field(str, "ones"),
        **_driver("one"),
        "x_path": Field(str, "sin"),
        "horizon": _HORIZON,
        "steps": Field(int, 4096, lambda v: v >= 2),
        "base_time": Field(float, 0.0, _nonneg),
        "mode": Field(str, "euler", lambda v: v in ("euler", "exact")),
        "richardson": Field(bool, True),
        "product_split": Field(float, 0.5, lambda v: 0 < v < 1),
    },
    "linear-bsde": {
        "alpha": Field(str, "one", lambda v: v in ("zero", "one")),
        "terminal": Field(str, "identity"),
        **_driver("one"),
        "amplitude": _AMPLITUDE,
        "drift_change": Field(str, "zero"),
        "drift_change_amplitude": Field(float, 0.4),
        "x0": _X0,
        **_batch(64, 10000),
    },
    "nonlinear-bsde": {
        "reaction_rate": Field(float, 0.0),  # f = rate * y
        "g": Field(str, "zero"),
        "terminal": Field(str, "identity"),
        **_driver("cos"),
        "amplitude": _AMPLITUDE,
        "x0": _X0,
        **_batch(64, 10000),
        "radii": Field(tuple, (2.0, 3.0, 4.0, 6.0), _nonempty),
        "basis_degree": Field(int, 2, lambda v: 0 <= v <= 6),
        "picard_tol": Field(float, 1e-6, _positive),
        "picard_max": Field(int, 50, _positive),
    },
    "pde-fk": {
        "terminal": Field(str, "one"),
        **_driver("cos"),
        "amplitude": _AMPLITUDE,
        **_batch(128, 10000),
        "eval_time": Field(float, 0.0, _nonneg),
        "eval_xs": Field(tuple, (-1.0, 0.0, 1.0), _nonempty),
    },
    "localization-error": {
        "terminal": Field(str, "identity"),
        "reaction_kind": Field(str, "zero",
                               lambda v: v in ("zero", "v-times-g")),
        "reaction_space": Field(str, "tent"),
        "reaction_g": Field(str, "tanh"),
        **{name: Field(float, 0.0, admissible)
           for name, admissible in GROWTH_EXPONENTS.items()},
        **_batch(64, 20000),
        "radii": Field(tuple, (1.5, 2.0, 2.5, 3.0), _nonempty),
        "reference_radius": Field(float, 4.0, _positive),
        "eval_xs": Field(tuple, (0.0,), _nonempty),
        "min_detectable_z": Field(float, 0.0, _nonneg),
    },
    "hurst-region": {
        "d": Field(int, 1, lambda v: v >= 1),
        "resolution": Field(int, 101, lambda v: v >= 2),
    },
    "tower-rule": {
        "a_process": Field(str, "terminal-square",
                           lambda v: v in ("terminal-linear",
                                           "terminal-square")),
        "b_process": Field(str, "one", lambda v: v in ("one", "state")),
        **_driver("cos"),
        "x0": _X0,
        **_batch(32, 20000),
        "t_index": Field(int, 0, _nonneg),
        "basis_degree": Field(int, 2, lambda v: 0 <= v <= 6),
    },
    "exit-decay": {
        "x0": _X0,
        **_batch(256, 100000),
        "radii": Field(tuple, (1.0, 1.5, 2.0, 2.5), _nonempty),
    },
}

EXPERIMENT_KINDS = sorted(SCHEMAS)


@dataclass
class ExperimentConfig:
    kind: str
    values: dict

    def echo(self) -> dict:
        out = {"kind": self.kind}
        out.update({k: (list(v) if isinstance(v, tuple) else v)
                    for k, v in sorted(self.values.items())})
        return out


def _read_pairs(text: str) -> dict[str, str]:
    pairs = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = raw.strip()
    return pairs


def parse_config(path=None, overrides=None, text=None) -> ExperimentConfig:
    """Load, type, validate.  overrides is an iterable of KEY=VALUE strings
    applied after the file."""
    if (path is None) == (text is None):
        raise ConfigError("exactly one of path or text must be given")
    if path is not None:
        text = Path(path).read_text()
    pairs = _read_pairs(text)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not KEY=VALUE")
        key, _, raw = item.partition("=")
        pairs[key.strip()] = raw.strip()

    kind = pairs.pop("kind", None)
    if kind is None:
        raise ConfigError("config must declare a kind")
    if kind not in SCHEMAS:
        raise ConfigError(
            f"unknown experiment kind {kind!r}; known: {EXPERIMENT_KINDS}")
    schema = dict(SCHEMAS[kind])
    schema.update(_COMMON)

    unknown = set(pairs) - set(schema)
    if unknown:
        raise ConfigError(f"unknown keys for kind {kind!r}: {sorted(unknown)}")

    values = {}
    for key, spec in schema.items():
        if key in pairs:
            try:
                values[key] = _parse_value(pairs[key], spec.kind)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"key {key!r}: {exc}") from None
        elif spec.default is REQUIRED:
            raise ConfigError(f"kind {kind!r} requires key {key!r}")
        else:
            values[key] = spec.default
        if spec.check is not None and values[key] is not None:
            try:
                ok = spec.check(values[key])
            except TypeError:
                ok = False
            if not ok:
                raise ConfigError(
                    f"key {key!r} = {values[key]!r} fails its precondition")
    return ExperimentConfig(kind=kind, values=values)
