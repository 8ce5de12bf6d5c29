"""Named analytic coefficient sets for the experiment runner.

Experiments select coefficients by registry name instead of parsing
expressions; scalar knobs (rates, amplitudes) come through typed config keys.
All callables are numpy-vectorized over the sample axis.
"""

from __future__ import annotations

import numpy as np

from .diffusion import DiffusionSpec
from .drivers import SpaceTimeDriver, make_separable_driver
from .errors import ConfigError

__all__ = [
    "diffusion_by_name",
    "space_function",
    "time_function",
    "terminal_function",
    "drift_change_function",
    "driver_by_names",
    "y_coefficient_function",
    "path_function",
    "DIFFUSIONS",
    "SPACE_FUNCTIONS",
    "TIME_FUNCTIONS",
    "TERMINALS",
    "DRIFT_CHANGES",
    "Y_COEFFICIENTS",
    "PATHS",
]


def _lookup(table: dict, name: str, what: str):
    try:
        return table[name]
    except KeyError:
        raise ConfigError(
            f"unknown {what} {name!r}; registered: {sorted(table)}") from None


# -- diffusions --------------------------------------------------------------

def _brownian(dim: int) -> DiffusionSpec:
    return DiffusionSpec(sigma=np.eye(dim), drift=np.zeros(dim),
                         bound=float(np.sqrt(dim)), dim=dim, ellipticity=1.0)


def _brownian_halfvol(dim: int) -> DiffusionSpec:
    return DiffusionSpec(sigma=0.5 * np.eye(dim), drift=np.zeros(dim),
                         bound=1.0, dim=dim, ellipticity=0.25)


def _ou_truncated(dim: int) -> DiffusionSpec:
    return DiffusionSpec(sigma=np.eye(dim),
                         drift=lambda t, x: -np.clip(x, -1.0, 1.0),
                         bound=float(np.sqrt(dim)) + 1e-9, dim=dim,
                         ellipticity=1.0)


def _drift_only(dim: int) -> DiffusionSpec:
    return DiffusionSpec(sigma=np.zeros((dim, dim)), drift=np.ones(dim),
                         bound=float(np.sqrt(dim)), dim=dim, ellipticity=0.0)


DIFFUSIONS = {
    "brownian": _brownian,
    "brownian-halfvol": _brownian_halfvol,
    "ou-truncated": _ou_truncated,
    "drift-only": _drift_only,
}


def diffusion_by_name(name: str, dim: int = 1) -> DiffusionSpec:
    return _lookup(DIFFUSIONS, name, "diffusion")(dim)


# -- separable driver pieces -------------------------------------------------

SPACE_FUNCTIONS = {
    "one": lambda x: np.ones(x.shape[0]),
    "cos": lambda x: np.cos(x[:, 0]),
    "sin": lambda x: np.sin(x[:, 0]),
    "linear": lambda x: x[:, 0],
    "tent": lambda x: np.maximum(0.0, 1.0 - np.abs(x[:, 0])),
    "kink": lambda x: np.abs(x[:, 0]),
    "lorentz": lambda x: 1.0 / (1.0 + x[:, 0] ** 2),
}

TIME_FUNCTIONS = {
    "linear": lambda t: np.asarray(t, dtype=float),
    "quadratic": lambda t: np.asarray(t, dtype=float) ** 2,
    "sin": lambda t: np.sin(np.asarray(t, dtype=float)),
    "kink-mid": lambda t: np.abs(np.asarray(t, dtype=float) - 0.5),
}

def space_function(name: str):
    return _lookup(SPACE_FUNCTIONS, name, "space function")


def time_function(name: str):
    return _lookup(TIME_FUNCTIONS, name, "time function")


def driver_by_names(space: str, time: str, dim: int = 1,
                    amplitude: float = 1.0) -> SpaceTimeDriver:
    v = space_function(space)
    a = time_function(time)
    return make_separable_driver(lambda x: amplitude * v(x), a, dim=dim)


# -- terminal conditions, drift changes, reaction pieces ----------------------

TERMINALS = {
    "identity": lambda x: x[:, 0],
    "one": lambda x: np.ones(x.shape[0]),
    "kink": lambda x: np.abs(x[:, 0]),
    "cos": lambda x: np.cos(x[:, 0]),
    "gauss": lambda x: np.exp(-0.5 * np.sum(x * x, axis=1)),
}


def terminal_function(name: str):
    return _lookup(TERMINALS, name, "terminal function")


def _drift_change_const(amplitude: float):
    def g(t, x):
        return np.full_like(x, amplitude)

    return g


def _drift_change_cos(amplitude: float):
    def g(t, x):
        return amplitude * np.cos(x)

    return g


DRIFT_CHANGES = {
    "zero": lambda amplitude: None,
    "const": _drift_change_const,
    "cos-state": _drift_change_cos,
}


def drift_change_function(name: str, amplitude: float = 0.4):
    return _lookup(DRIFT_CHANGES, name, "drift-change")(amplitude)


Y_COEFFICIENTS = {
    "zero": lambda y: np.zeros((np.size(y), 1)),
    "one": lambda y: np.ones((np.size(y), 1)),
    "tanh": lambda y: np.tanh(np.asarray(y, dtype=float)).reshape(-1, 1),
    "cos-y": lambda y: np.cos(np.asarray(y, dtype=float)).reshape(-1, 1),
}


def y_coefficient_function(name: str):
    return _lookup(Y_COEFFICIENTS, name, "Young coefficient g")


PATHS = {
    "t": lambda t: np.asarray(t, dtype=float),
    "one": lambda t: np.ones_like(np.asarray(t, dtype=float)),
    "sin": lambda t: np.sin(np.asarray(t, dtype=float)),
    "cos": lambda t: np.cos(np.asarray(t, dtype=float)),
}


def path_function(name: str):
    return _lookup(PATHS, name, "path")
