"""Nonlinear Young integrals and matrix Young flows.

The integral of y against eta along x over [a, b] is the limit of left-point
compensated sums

    sum_i  y_{t_i} * ( eta(t_{i+1}, x_{t_i}) - eta(t_i, x_{t_i}) ),

refined by dyadic midpoint insertion with linear interpolation of y and x.
Space is frozen at the left point of each interval.

Flows solve d Gamma = sum_i alpha_i^T Gamma eta_i(ds, x_s), Gamma = I at the
base time, by explicit Euler steps; in one dimension the exponential closed
form is available as an exact mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drivers import SpaceTimeDriver
from .errors import DomainError, NumericalError
from .paths import SamplePath

__all__ = [
    "YoungIntegralResult",
    "FlowPath",
    "nonlinear_young_integral",
    "young_sum_fixed_partition",
    "step_increments",
    "young_sum_batch",
    "solve_flow",
    "flow_inverse",
    "flow_product_defect",
    "FLOW_OVERFLOW_GUARD",
]

FLOW_OVERFLOW_GUARD = 1e12
DEFAULT_TOL_ABS = 1e-8
DEFAULT_TOL_REL = 1e-6
DEFAULT_MAX_LEVELS = 16


def _check_log_weight(log_weight: np.ndarray, what: str) -> None:
    """The overflow rule of every exponential weight: raise NumericalError
    when a log weight passes log(FLOW_OVERFLOW_GUARD)."""
    worst = float(np.max(log_weight))
    if worst > np.log(FLOW_OVERFLOW_GUARD):
        raise NumericalError(f"{what} overflow: log weight {worst:g} above "
                             f"log({FLOW_OVERFLOW_GUARD:g})")


@dataclass(frozen=True)
class YoungIntegralResult:
    """Converged (or best-effort) value of a nonlinear Young integral."""

    value: np.ndarray
    levels: int
    cauchy_gap: float
    converged: bool

    def __float__(self) -> float:
        if self.value.size != 1:
            raise DomainError("multi-channel result cannot collapse to float")
        return float(self.value[0])


def _midpoint_refine(values: np.ndarray) -> np.ndarray:
    """Interleave linear midpoints between consecutive rows."""
    new_v = np.empty((2 * values.shape[0] - 1, values.shape[1]))
    new_v[::2] = values
    new_v[1::2] = 0.5 * (values[:-1] + values[1:])
    return new_v


def _refine(times: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Insert linear midpoints, doubling the interval count."""
    new_t = np.empty(2 * times.size - 1)
    new_t[::2] = times
    new_t[1::2] = 0.5 * (times[:-1] + times[1:])
    return new_t, _midpoint_refine(values)


def _left_sum(driver: SpaceTimeDriver, times: np.ndarray, y: np.ndarray,
              x: np.ndarray) -> np.ndarray:
    deta = driver.increment_pairs(times[:-1], times[1:], x[:-1])
    return np.sum(y[:-1] * deta, axis=0)


def young_sum_fixed_partition(driver: SpaceTimeDriver, times: np.ndarray,
                              y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Left-point sum on one fixed partition; no refinement.  y has shape
    (m,) or (m, 1); x has shape (m, d).  Returns (M,)."""
    y = np.asarray(y, dtype=float).reshape(times.size, 1)
    x = np.asarray(x, dtype=float).reshape(times.size, -1)
    return _left_sum(driver, times, y, x)


def nonlinear_young_integral(y: SamplePath, x: SamplePath,
                             driver: SpaceTimeDriver,
                             tol_abs: float = DEFAULT_TOL_ABS,
                             tol_rel: float = DEFAULT_TOL_REL,
                             max_levels: int = DEFAULT_MAX_LEVELS
                             ) -> YoungIntegralResult:
    """Integral of the scalar path y against eta(dr, x_r) over the span of
    their shared grid.

    Successive dyadic refinements are compared in max norm; the result is
    converged when the inter-level gap drops below tol_abs + tol_rel*|value|.
    Non-convergence is reported in the result, not raised.
    """
    if y.dim != 1:
        raise DomainError("integrand path must be scalar")
    if x.dim != driver.dim:
        raise DomainError(
            f"path dimension {x.dim} != driver dimension {driver.dim}")
    if y.grid.times.shape != x.grid.times.shape or not np.allclose(
            y.grid.times, x.grid.times):
        raise DomainError("integrand and integrator must share a grid")
    times = y.grid.times
    if times.size < 2:
        raise DomainError("need at least 2 grid points")

    yv, xv = y.values, x.values
    value = _left_sum(driver, times, yv, xv)
    gap = np.inf
    levels = 1
    for _ in range(max_levels):
        times, yv = _refine(times, yv)
        xv = _midpoint_refine(xv)
        new_value = _left_sum(driver, times, yv, xv)
        gap = float(np.max(np.abs(new_value - value)))
        value = new_value
        levels += 1
        if gap < tol_abs + tol_rel * float(np.max(np.abs(value))):
            return YoungIntegralResult(value=value, levels=levels,
                                       cauchy_gap=gap, converged=True)
    return YoungIntegralResult(value=value, levels=levels, cauchy_gap=gap,
                               converged=False)


def step_increments(driver: SpaceTimeDriver, times: np.ndarray,
                    paths: np.ndarray):
    """Left-point driver increments along a path batch, one grid step at a
    time: yields eta(t_{i+1}, X_i) - eta(t_i, X_i), shape (S, M), for
    i = 0 .. m-2.  paths has shape (S, m, d); each step passes its two
    times as scalars, so the driver sees one time value per step.  Callers
    sum, weight, stack or accumulate the steps."""
    for i in range(paths.shape[1] - 1):
        yield driver.increment_pairs(times[i], times[i + 1], paths[:, i, :])


def young_sum_batch(driver: SpaceTimeDriver, times: np.ndarray,
                    paths: np.ndarray) -> np.ndarray:
    """Left-point sums of the driver increments over a sample batch on the
    simulation grid, shape (S, M).  Streams one step at a time, so the batch
    of increments is never materialized."""
    return sum(step_increments(driver, times, paths),
               np.zeros((paths.shape[0], driver.channels)))


# -- flows -----------------------------------------------------------------

@dataclass(frozen=True)
class FlowPath:
    """Matrix flow Gamma^t_s on the grid times >= t (base included)."""

    base_time: float
    times: np.ndarray
    matrices: np.ndarray
    mode: str = "euler"
    error_estimate: float | None = None

    def __post_init__(self):
        m = np.asarray(self.matrices, dtype=float)
        object.__setattr__(self, "matrices", m)
        if m.ndim != 3 or m.shape[1] != m.shape[2]:
            raise DomainError("flow matrices must be (K, N, N)")
        if m.shape[0] != np.asarray(self.times).size:
            raise DomainError("one matrix per grid time required")
        if not np.all(np.isfinite(m)):
            raise NumericalError("flow contains non-finite matrices")
        if not np.allclose(m[0], np.eye(m.shape[1]), atol=1e-12):
            raise DomainError("flow must start at the identity")

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    @property
    def terminal(self) -> np.ndarray:
        return self.matrices[-1]

    def at_time(self, s: float) -> np.ndarray:
        i = int(np.argmin(np.abs(self.times - s)))
        if abs(self.times[i] - s) > 1e-9 * max(1.0, abs(s)):
            raise DomainError(f"time {s} is not a flow grid point")
        return self.matrices[i]


def _coerce_alpha(alpha: np.ndarray, m: int, channels: int) -> np.ndarray:
    """Accept (m,), (m, M), or (m, M, N, N) coefficient arrays."""
    a = np.asarray(alpha, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim == 2:
        a = a[:, :, None, None]
    if a.ndim != 4 or a.shape[0] != m or a.shape[1] != channels:
        raise DomainError(
            f"alpha shape {np.asarray(alpha).shape} incompatible with "
            f"{m} grid points and {channels} channels")
    return a


def _euler_flow(alpha: np.ndarray, deta: np.ndarray) -> np.ndarray:
    """Explicit Euler flow from the identity,
    Gamma_{i+1} = Gamma_i + sum_ch alpha[i,ch]^T Gamma_i deta[i,ch];
    alpha is (steps, M, N, N), deta is (steps, M).  Returns
    (steps + 1, N, N)."""
    steps = deta.shape[0]
    n = alpha.shape[-1]
    out = np.empty((steps + 1, n, n))
    out[0] = np.eye(n)
    for i in range(steps):
        step = np.einsum("cji,jk,c->ik", alpha[i], out[i], deta[i])
        out[i + 1] = out[i] + step
        if np.max(np.abs(out[i + 1])) > FLOW_OVERFLOW_GUARD:
            raise NumericalError(
                f"flow magnitude exceeded {FLOW_OVERFLOW_GUARD:g} at step "
                f"{i + 1}; the step size is too coarse for these coefficients"
            )
    return out


def solve_flow(alpha, driver: SpaceTimeDriver, x: SamplePath,
               base_time: float = 0.0, mode: str = "euler",
               richardson: bool = False) -> FlowPath:
    """Solve the matrix linear Young ODE along x from base_time to the end of
    the grid.

    alpha holds per-grid-time coefficients, shape (m, M, N, N) (scalar and
    per-channel shorthands accepted).  mode="exact" uses the one-dimensional
    exponential closed form exp(int alpha deta) and requires N == 1.
    richardson=True additionally solves on a midpoint-doubled grid and
    reports the terminal discrepancy as error_estimate.
    """
    times = x.grid.times
    m = times.size
    alpha = _coerce_alpha(alpha, m, driver.channels)
    base = int(np.argmin(np.abs(times - base_time)))
    if abs(times[base] - base_time) > 1e-9 * max(1.0, abs(base_time)):
        raise DomainError(f"base time {base_time} is not a grid point")
    if m - base < 2:
        raise DomainError("flow needs at least one step after the base time")
    sub_t = times[base:]
    sub_x = x.values[base:]
    sub_a = alpha[base:]

    n = alpha.shape[2]
    if mode == "exact":
        if n != 1:
            raise DomainError("exact exponential mode requires N == 1")
        deta = driver.increment_pairs(sub_t[:-1], sub_t[1:], sub_x[:-1])
        increments = np.sum(sub_a[:-1, :, 0, 0] * deta, axis=1)
        exponent = np.concatenate([[0.0], np.cumsum(increments)])
        _check_log_weight(exponent, "exact flow")
        matrices = np.exp(exponent)[:, None, None]
        return FlowPath(base_time=float(sub_t[0]), times=sub_t,
                        matrices=matrices, mode="exact")
    if mode != "euler":
        raise DomainError(f"unknown flow mode {mode!r}")

    deta = driver.increment_pairs(sub_t[:-1], sub_t[1:], sub_x[:-1])
    matrices = _euler_flow(sub_a[:-1], deta)
    err = None
    if richardson:
        fine_t, fine_x = _refine(sub_t, sub_x)
        fine_a = np.empty((fine_t.size, *sub_a.shape[1:]))
        fine_a[::2] = sub_a
        fine_a[1::2] = 0.5 * (sub_a[:-1] + sub_a[1:])
        fine_deta = driver.increment_pairs(fine_t[:-1], fine_t[1:],
                                           fine_x[:-1])
        fine = _euler_flow(fine_a[:-1], fine_deta)
        err = float(np.max(np.abs(fine[-1] - matrices[-1])))
    return FlowPath(base_time=float(sub_t[0]), times=sub_t,
                    matrices=matrices, mode="euler", error_estimate=err)


def flow_inverse(flow: FlowPath) -> FlowPath:
    """Per-time matrix inverse; fails loudly on near-singular states
    (condition number above 1e12)."""
    conds = np.linalg.cond(flow.matrices)
    worst = int(np.argmax(conds))
    if conds[worst] > 1e12:
        raise NumericalError(
            f"flow not invertible at t={flow.times[worst]:g} "
            f"(condition number {conds[worst]:.3e})")
    return FlowPath(base_time=flow.base_time, times=flow.times,
                    matrices=np.linalg.inv(flow.matrices), mode=flow.mode)


def flow_product_defect(flow_from_t: FlowPath, flow_from_s: FlowPath) -> float:
    """Max-norm defect |Gamma^t_T - Gamma^s_T Gamma^t_s| of the multiplicative
    property; a solver-quality diagnostic, zero for compatible exact flows."""
    s = flow_from_s.base_time
    if s < flow_from_t.base_time - 1e-12:
        raise DomainError("second flow must start inside the first")
    if abs(flow_from_t.times[-1] - flow_from_s.times[-1]) > 1e-12:
        raise DomainError("flows must share the terminal time")
    gamma_t_s = flow_from_t.at_time(s)
    product = flow_from_s.terminal @ gamma_t_s
    return float(np.max(np.abs(flow_from_t.terminal - product)))
