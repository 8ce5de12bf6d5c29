"""Backward equation solvers along the forward diffusion.

Two routes are implemented:

* the scalar Feynman-Kac formula at t = 0 for linear equations,
  Y_0 = E[exp(int_0^T alpha eta(dr, X_r)) xi M_T], with M the exponential
  martingale of the drift change;

* a localized least-squares Monte Carlo scheme for the nonlinear equation
  dY = -f(t,X,Y,Z) dt - g(Y) eta(dt,X) + Z dW stopped at the first exit of X
  from a centered ball, with exited samples absorbed at their boundary datum.

Conditional expectations are global polynomial regressions on the state
restricted to not-yet-exited samples.  Z carries the documented O(sqrt(dt))
bias of the Brownian-increment regression representation.

The localized scheme is backward triangular: Y_i depends only on Y_{i+1},
on Z_i (a fit of Y_{i+1}) and on itself.  So the solver makes one backward
pass.  At each step it builds the basis of the active samples and its
ridge coefficient operator once, fits Z_i once from Y_{i+1}, and iterates
the Y_i fit in place (a per-step Picard fixed point) with that operator, so
each fit is one matrix product.  This has the fixed point of a global
Picard iteration over the whole horizon.

Every solver takes the path batch it solves on and none simulates: the
equation types carry coefficients only, and one batch serves a whole sweep
of radii.  Every solver and diagnostic reads the driver increments from
`PathBatch.driver_increments`, which the batch computes once per driver,
so the radii of a sweep share one step-major array.

Each solver reports, besides y0, one value per sample whose mean is y0:
the payoff of the linear formula, and the pathwise sum of datum and
driver terms of the localized scheme.  A standard error is always the
spread of those values over sqrt(samples); a paired standard error is the
spread of their per-sample difference between two solves on one batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .diffusion import PathBatch, first_exit
# bench/tracer.py wraps simulate as bound in this module
from .diffusion import simulate  # noqa: F401
from .drivers import SpaceTimeDriver
from .errors import DomainError, NumericalError
from .regression import (fit_predict, poly_basis, ridge_fit, ridge_operator,
                         ridge_solve)
from .young_calculus import FLOW_OVERFLOW_GUARD

__all__ = [
    "LinearBsdeSpec",
    "BsdeProblem",
    "BsdeSolution",
    "PicardConfig",
    "girsanov_weight",
    "solve_linear_bsde",
    "tower_rule_defect",
    "solve_localized_bsde",
    "martingale_residual",
    "solve_bsde_with_localization",
    "exponential_moment_diagnostic",
]

_EXP_GUARD = 700.0


def girsanov_weight(g_values: np.ndarray, increments: np.ndarray,
                    dts: np.ndarray) -> np.ndarray:
    """Terminal value M_T, shape (S,), of the discrete exponential
    martingale of a drift-change process; strictly positive, M_0 = 1.

    g_values holds the process at left grid points, shape (S, steps, d);
    increments are the Brownian increments of the same shape.  Raises
    NumericalError when the running log M exceeds the overflow guard.
    """
    g_values = np.asarray(g_values, dtype=float)
    increments = np.asarray(increments, dtype=float)
    if g_values.shape != increments.shape:
        raise DomainError("drift-change values and increments must align")
    log_steps = (np.sum(g_values * increments, axis=2)
                 - 0.5 * np.sum(g_values**2, axis=2) * dts[None, :])
    log_path = np.concatenate(
        [np.zeros((g_values.shape[0], 1)), np.cumsum(log_steps, axis=1)],
        axis=1)
    if np.max(log_path) > _EXP_GUARD:
        raise NumericalError("exponential martingale overflow; the "
                             "drift-change process is too large")
    return np.exp(log_path[:, -1])


def _standard_error(values: np.ndarray) -> float:
    """Standard error of the mean of per-sample values; 0 for fewer than
    two samples."""
    if values.size < 2:
        return 0.0
    return float(np.std(values, ddof=1) / math.sqrt(values.size))


# -- linear equations -------------------------------------------------------

@dataclass
class LinearBsdeSpec:
    """Coefficients of the scalar linear equation
    Y_t = xi + sum_i int alpha^i Y eta_i(dr, X) + int Z G dr - int Z dW.

    alpha(t, x:(S,d)) -> (S,) for one driver channel, or (S, M);
    drift_change(t, x) -> (S, d) or None; terminal(paths (S, m, d)) -> (S,)
    evaluated on whole simulated paths.  Declared bounds are spot-checked on
    every visited state of the batch a solve is given.
    """

    alpha: callable
    terminal: callable
    driver: SpaceTimeDriver
    drift_change: callable = None
    alpha_bound: float | None = None
    drift_change_bound: float | None = None

    def alpha_at(self, t: float, x: np.ndarray) -> np.ndarray:
        out = np.asarray(self.alpha(t, x), dtype=float).reshape(
            x.shape[0], self.driver.channels)
        if self.alpha_bound is not None:
            worst = float(np.max(np.abs(out)))
            if worst > self.alpha_bound * (1 + 1e-12):
                raise DomainError(
                    f"coefficient process exceeded its declared bound: "
                    f"{worst:g} > {self.alpha_bound:g} at t={t:g}")
        return out

    def drift_change_at(self, t: float, x: np.ndarray) -> np.ndarray:
        if self.drift_change is None:
            return np.zeros_like(x)
        out = np.asarray(self.drift_change(t, x), dtype=float)
        out = out.reshape(x.shape[0], x.shape[1])
        if self.drift_change_bound is not None:
            worst = float(np.max(np.linalg.norm(out, axis=1)))
            if worst > self.drift_change_bound * (1 + 1e-12):
                raise DomainError(
                    f"drift-change process exceeded its declared bound: "
                    f"{worst:g} > {self.drift_change_bound:g} at t={t:g}")
        return out


def solve_linear_bsde(spec: LinearBsdeSpec, batch: PathBatch
                      ) -> "BsdeSolution":
    """Y_0 of the linear equation by the Feynman-Kac formula at t = 0,
        Y_0 = E[exp(int alpha eta(dr, X)) xi M_T],
    on the given path batch, with M the exponential martingale of the drift
    change: the mean of one payoff per sample, whose spread gives the
    standard error.  The control process Z is not produced by this formula;
    Z estimation belongs to the regression pathway of the localized solver
    and any Z here is None.
    """
    times = batch.grid.times
    S, m = batch.samples, times.size

    alpha = np.stack([spec.alpha_at(times[i], batch.paths[:, i, :])
                      for i in range(m)], axis=1)
    deta = batch.driver_increments(spec.driver).swapaxes(0, 1)
    exponent = np.concatenate(
        [np.zeros((S, 1)),
         np.cumsum(np.sum(alpha[:, :-1] * deta, axis=2), axis=1)], axis=1)
    if np.max(exponent) > np.log(FLOW_OVERFLOW_GUARD):
        raise NumericalError("linear flow exponent overflow")

    g_vals = np.empty((S, m - 1, batch.dim))
    for i in range(m - 1):
        g_vals[:, i] = spec.drift_change_at(times[i], batch.paths[:, i, :])
    weight_T = girsanov_weight(g_vals, batch.increments, np.diff(times))

    xi = np.asarray(spec.terminal(batch.paths), dtype=float).reshape(S)
    payoff = np.exp(exponent[:, -1]) * xi * weight_T
    return BsdeSolution(y0=float(payoff.mean()), y_coefficients=None,
                        z_coefficients=None, y_paths=None, z_paths=None,
                        radius=math.inf, picard_iterations=0, picard_gaps=[],
                        converged=True, y0_samples=payoff,
                        y0_standard_error=_standard_error(payoff))


def tower_rule_defect(a_values: np.ndarray, b_values: np.ndarray,
                      driver: SpaceTimeDriver, batch: PathBatch,
                      t_index: int = 0, basis_degree: int = 2
                      ) -> tuple[float, float, float]:
    """Monte Carlo check that conditioning the integrand at each left point
    does not move the integral.

    Returns (estimator with the raw integrand, estimator with the per-time
    regression-conditioned integrand, standard error of their paired
    difference).  The pairing uses common samples, so the returned standard
    error is the one relevant for testing the defect.  The sums start at grid
    index t_index, which must leave at least one step: 0 <= t_index <= m - 2.
    """
    times = batch.grid.times
    S, m = batch.samples, times.size
    if not 0 <= t_index <= m - 2:
        raise DomainError(f"t_index {t_index} outside [0, {m - 2}] on a grid "
                          f"of {m} points")
    a_values = np.asarray(a_values, dtype=float).reshape(S, m)
    b_values = np.asarray(b_values, dtype=float).reshape(S, m)
    # sample-major, so the sums over steps run in the same order whatever
    # the layout
    deta = np.ascontiguousarray(batch.driver_increments(driver)[:, :, 0].T)

    a_hat = np.empty_like(a_values)
    for i in range(m):
        basis = poly_basis(batch.paths[:, i, :], basis_degree)
        a_hat[:, i], _ = fit_predict(basis, a_values[:, i])

    k = t_index
    lhs = np.sum(a_values[:, k:-1] * b_values[:, k:-1] * deta[:, k:], axis=1)
    rhs = np.sum(a_hat[:, k:-1] * b_values[:, k:-1] * deta[:, k:], axis=1)
    est1, est2 = float(lhs.mean()), float(rhs.mean())
    return est1, est2, _standard_error(lhs - rhs)


# -- nonlinear localized equations ------------------------------------------

def _contract_cloud(dim: int) -> SimpleNamespace:
    """The fixed 64-point cloud on which declared constants are checked:
    y values for g, states x with (y, z) pairs for f, and offsets dx for
    terminals."""
    rng = np.random.Generator(np.random.Philox(key=1))
    points = 64
    y = rng.normal(scale=2.0, size=points)
    x = rng.normal(scale=2.0, size=(points, dim))
    y1, y2 = rng.normal(size=points), rng.normal(size=points)
    z1 = rng.normal(size=(points, dim))
    z2 = rng.normal(size=(points, dim))
    dx = rng.normal(scale=0.5, size=(points, dim))
    return SimpleNamespace(y=y, x=x, y1=y1, y2=y2, z1=z1, z2=z2, dx=dx)


def _check_secant(message: str, change, distance, bound) -> None:
    """Raise DomainError(message) when a secant |change| / distance on the
    contract cloud exceeds its declared bound (a constant or one weight per
    point) by more than 0.1 %."""
    change = np.atleast_1d(np.abs(np.asarray(change, dtype=float)))
    ratio = (change.reshape(change.shape[0], -1)
             / np.maximum(np.reshape(distance, (-1, 1)), 1e-12))
    if np.any(ratio > np.reshape(bound, (-1, 1)) * (1 + 1e-3)):
        raise DomainError(f"{message} (observed secant "
                          f"{float(np.max(ratio)):g})")


def _check_coefficients(problem) -> None:
    """The declared bound on g and its first two derivatives, and the
    Lipschitz constant of f in (y, z), on the contract cloud."""
    c = _contract_cloud(problem.driver.dim)
    h = 1e-4
    g0 = np.asarray(problem.g(c.y), dtype=float)
    g_up = np.asarray(problem.g(c.y + h), dtype=float)
    g_dn = np.asarray(problem.g(c.y - h), dtype=float)
    message = (f"g or its derivatives exceed the declared bound "
               f"{problem.coefficient_bound:g}")
    for change, distance in ((g0, 1.0), (g_up - g_dn, 2 * h),
                             (g_up - 2 * g0 + g_dn, h * h)):
        _check_secant(message, change, distance, problem.coefficient_bound)
    _check_secant(
        f"f exceeds its declared Lipschitz constant {problem.lipschitz_f:g}",
        np.asarray(problem.f(0.5, c.x, c.y1, c.z1), dtype=float)
        - np.asarray(problem.f(0.5, c.x, c.y2, c.z2), dtype=float),
        np.abs(c.y1 - c.y2) + np.linalg.norm(c.z1 - c.z2, axis=1),
        problem.lipschitz_f)


@dataclass
class BsdeProblem:
    """Scalar nonlinear backward equation data.

    f(t, x:(S,d), y:(S,), z:(S,d)) -> (S,); g(y:(S,)) -> (S, M) with g, its
    gradient and curvature bounded by coefficient_bound and f Lipschitz in
    (y, z) with constant lipschitz_f (both checked by secants on the
    contract cloud at construction); terminal h(x:(S,d)) -> (S,).  The
    start point and the forward dynamics are those of the batch a solve is
    given.
    """

    f: callable
    g: callable
    terminal: callable
    driver: SpaceTimeDriver
    coefficient_bound: float = 1.0
    lipschitz_f: float = 1.0

    def __post_init__(self):
        _check_coefficients(self)

    def terminal_at(self, batch: PathBatch, stop_index: np.ndarray
                    ) -> np.ndarray:
        stopped = batch.paths[np.arange(batch.samples), stop_index, :]
        return np.asarray(self.terminal(stopped), dtype=float).reshape(-1)


def _young_term(problem: BsdeProblem, y: np.ndarray,
                deta: np.ndarray) -> np.ndarray:
    """g(y) . deta per sample; g may return (S,) for one channel."""
    g_val = np.asarray(problem.g(y), dtype=float)
    if g_val.ndim == 1:
        g_val = g_val[:, None]
    terms = g_val * deta
    # one channel: the column itself, equal to its length-1 sum (which
    # only turns a -0.0 into 0.0)
    return terms[:, 0] if terms.shape[1] == 1 else np.sum(terms, axis=1)


def _cross_fitted_control(basis: np.ndarray, y_next: np.ndarray,
                          dw: np.ndarray, dt: float) -> np.ndarray:
    """Two-fold cross-fitted Z values on the given rows (deterministic
    parity split), so the diagnostic increments are independent of the fit."""
    out = np.empty((basis.shape[0], dw.shape[1]))
    target = y_next[:, None] * dw / dt
    fold = np.arange(basis.shape[0]) % 2
    for f in (0, 1):
        train, test = fold == f, fold != f
        if not np.any(train) or not np.any(test):
            out[:] = 0.0
            return out
        coeffs = ridge_fit(basis[train], target[train])
        out[test] = basis[test] @ coeffs
    return out


@dataclass
class PicardConfig:
    """Per-step fixed point of the localized solver: each step iterates its
    Y fit until one iteration moves it by less than tolerance (sup over the
    step's active samples), for at most max_iterations iterations."""

    tolerance: float = 1e-6
    max_iterations: int = 50


@dataclass
class BsdeSolution:
    """Estimated backward solution and solver diagnostics."""

    y0: float
    y_coefficients: object
    z_coefficients: object
    y_paths: np.ndarray | None
    z_paths: np.ndarray | None
    radius: float
    # localized solver: the largest per-step iteration count, each visited
    # step's final gap (last step first), and whether every one of those
    # gaps is below the tolerance
    picard_iterations: int
    picard_gaps: list
    converged: bool
    # one value per sample, in sample order, whose mean is y0 (up to the
    # ridge's shrinkage for the localized solver); its spread is the
    # standard error
    y0_samples: np.ndarray
    y0_standard_error: float
    exit_probability: float = 0.0
    max_abs_y: float = float("nan")


def _check_radii(radii: np.ndarray, batch: PathBatch) -> None:
    """Every radius must exceed the norm of the batch's start point."""
    x0_norm = float(np.linalg.norm(batch.paths[0, 0]))
    if np.any(radii <= x0_norm):
        raise DomainError(f"localization radius must exceed |x0| = "
                          f"{x0_norm:g}; got {radii.tolist()}")


def solve_localized_bsde(problem: BsdeProblem, radius: float,
                         batch: PathBatch, basis_degree: int = 2,
                         picard: PicardConfig | None = None) -> BsdeSolution:
    """Backward induction with regression conditional expectations on the
    equation stopped at the first exit from the centered ball of the given
    radius, in one backward pass over the given path batch.

    At step i, from the last step back to the first, only samples still
    inside the ball (stop index > i) are fitted; exited samples stay frozen
    at their boundary datum.  The step's basis and ridge coefficient
    operator are built once.  Z_i is fitted once from Y_{i+1}; Y_i solves
    the fixed point
        Y_i = P_i[Y_{i+1} + f(t_i, X_i, Y_i, Z_i) dt + g(Y_i) . deta_i],
    iterated from Y_{i+1} with the same operator until the sup change of one
    iteration (the step's gap) drops below the Picard tolerance, or for at
    most max_iterations iterations.  Non-convergence is flagged on the
    result, not raised.

    Every basis has an intercept, so each fit's mean is its targets' mean
    and y0 is the mean of the pathwise sum
        P = datum + sum_{i < stop} (f_i dt_i + g(Y_i) . deta_i)
    of each step's last target; y0_samples holds P and the standard error
    is its spread.
    """
    picard = picard or PicardConfig()
    _check_radii(np.array([radius]), batch)
    times = batch.grid.times
    S, m = batch.samples, times.size
    dts = np.diff(times)

    exit_report = first_exit(batch, radius)
    stop_index = exit_report.stop_index
    datum = problem.terminal_at(batch, stop_index)
    deta = batch.driver_increments(problem.driver)

    # exited samples keep their datum in y and zero in z: only active rows
    # are ever written
    y = np.tile(datum, (m, 1))
    z = np.zeros((m - 1, S, batch.dim))
    y_coeffs = [None] * (m - 1)
    z_coeffs = [None] * (m - 1)
    pathwise = datum.copy()
    gaps = []
    iterations = 0
    for i in range(m - 2, -1, -1):
        active = np.flatnonzero(stop_index > i)
        if active.size == 0:
            continue
        if active.size == S:  # views, not gathers, while none has exited
            active = slice(None)
        x_i = batch.paths[active, i]
        basis = poly_basis(x_i, basis_degree)
        operator = ridge_operator(basis)
        y_next = y[i + 1, active]
        z_coeffs[i] = ridge_solve(operator, y_next[:, None]
                                  * batch.increments[active, i] / dts[i])
        z_fit = basis @ z_coeffs[i]
        z[i, active] = z_fit
        deta_i = deta[i, active]
        y_i, step, gap, k = y_next, 0.0, math.inf, 0
        for k in range(1, picard.max_iterations + 1):
            f_val = np.asarray(problem.f(times[i], x_i, y_i, z_fit),
                               dtype=float)
            step = f_val * dts[i] + _young_term(problem, y_i, deta_i)
            y_coeffs[i] = ridge_solve(operator, y_next + step)
            y_fit = basis @ y_coeffs[i]
            gap = float(np.abs(y_fit - y_i).max())
            y_i = y_fit
            if gap < picard.tolerance:
                break
        y[i, active] = y_i
        pathwise[active] += step
        gaps.append(gap)
        iterations = max(iterations, k)

    return BsdeSolution(
        y0=float(y[0].mean()), y_coefficients=y_coeffs,
        z_coefficients=z_coeffs, y_paths=y.T, z_paths=z.transpose(1, 0, 2),
        radius=float(radius), picard_iterations=iterations,
        picard_gaps=gaps,
        converged=all(gap < picard.tolerance for gap in gaps),
        y0_samples=pathwise,
        y0_standard_error=_standard_error(pathwise),
        exit_probability=exit_report.probability,
        max_abs_y=float(np.max(np.abs(y))))


def martingale_residual(problem: BsdeProblem, solution: BsdeSolution,
                        batch: PathBatch, basis_degree: int = 2) -> dict:
    """Per grid step, the mean one-step martingale residual
        Y_i - (Y_{i+1} + f dt + g(Y_i) . deta_i) + Z_i . dW_i
    of a localized solution over the samples still inside its ball, and the
    standard error of that mean; zero where every sample has exited.

    The batch must be the one the solution was computed on.  The Brownian
    term uses out-of-fold control fits: in-sample fitted Z correlates with
    the very increments it was regressed on, which biases the mean by
    O(basis/samples) and would drown the test.
    """
    times = batch.grid.times
    m = times.size
    dts = np.diff(times)
    stop_index = first_exit(batch, solution.radius).stop_index
    deta = batch.driver_increments(problem.driver)
    y, z = solution.y_paths, solution.z_paths
    mean = np.zeros(m - 1)
    se = np.zeros(m - 1)
    for i in range(m - 1):
        active = stop_index > i
        if not np.any(active):
            continue
        f_val = np.asarray(
            problem.f(times[i], batch.paths[active, i, :], y[active, i],
                      z[active, i, :]), dtype=float)
        z_cross = _cross_fitted_control(
            poly_basis(batch.paths[active, i, :], basis_degree),
            y[active, i + 1], batch.increments[active, i, :], dts[i])
        zdw = np.sum(z_cross * batch.increments[active, i, :], axis=1)
        res = y[active, i] - (
            y[active, i + 1] + f_val * dts[i]
            + _young_term(problem, y[active, i], deta[i, active])) + zdw
        mean[i] = float(res.mean())
        # the projection part of the mean vanishes identically (normal
        # equations), so the estimator fluctuates only through the zdw term
        se[i] = _standard_error(zdw)
    return {"mean": mean, "se": se}


def solve_bsde_with_localization(problem: BsdeProblem, radii,
                                 batch: PathBatch, basis_degree: int = 2,
                                 picard: PicardConfig | None = None
                                 ) -> tuple[BsdeSolution, list]:
    """Sweep strictly increasing localization radii on the given path batch
    (common random numbers) and report the decay of |Y^{n_k}_0 - Y^{n_K}_0|.

    Returns the largest-radius solution as the whole-space estimate plus one
    table row per radius: y0 with its own standard error, the gap to the
    largest radius with its paired standard error (the spread of the
    per-sample difference of y0_samples), the exit probability and max |Y|.
    The radii are checked before any solve.  Only the finest solution is
    kept whole: each coarser one shrinks to its row and its y0_samples
    before the next solve runs.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.size == 0 or not np.all(np.diff(radii) > 0):
        raise DomainError("radii must be strictly increasing")
    _check_radii(radii, batch)

    def solve(radius):
        return solve_localized_bsde(problem, radius, batch,
                                    basis_degree=basis_degree, picard=picard)

    def summary(sol):
        return ({"radius": sol.radius, "y0": sol.y0,
                 "y0_standard_error": sol.y0_standard_error,
                 "exit_probability": sol.exit_probability,
                 "max_abs_y": sol.max_abs_y}, sol.y0_samples)

    summaries = [summary(solve(r)) for r in radii[:-1]]
    finest = solve(radii[-1])
    summaries.append(summary(finest))
    for row, y0_samples in summaries:
        row["gap"] = abs(row["y0"] - finest.y0)
        row["se"] = _standard_error(y0_samples - finest.y0_samples)
    return finest, [row for row, _ in summaries]


@dataclass(frozen=True)
class ExponentialMomentEstimate:
    value: float
    log_value: float
    argmax_time: float


def exponential_moment_diagnostic(alpha_values: np.ndarray,
                                  driver: SpaceTimeDriver, batch: PathBatch,
                                  exponent: float, radius: float
                                  ) -> ExponentialMomentEstimate:
    """Estimate sup_t E[exp(q int_{t ^ T_n}^{T_n} alpha eta(dr, X))] on the
    grid; the localization constant monitor.

    Works in log space throughout, so an overflowing supremum is reported
    through log_value with value = inf instead of failing.
    """
    if exponent <= 0:
        raise DomainError("exponent must be positive")
    times = batch.grid.times
    S, m = batch.samples, times.size
    alpha_values = np.asarray(alpha_values, dtype=float).reshape(S, m)
    deta = batch.driver_increments(driver)[:, :, 0].T
    cums = np.concatenate(
        [np.zeros((S, 1)), np.cumsum(alpha_values[:, :-1] * deta, axis=1)],
        axis=1)
    stop = first_exit(batch, radius).stop_index
    end_value = cums[np.arange(S), stop]
    best_log, best_t = -np.inf, float(times[0])
    for j in range(m):
        partial = exponent * (end_value - cums[np.arange(S),
                                               np.minimum(j, stop)])
        peak = float(np.max(partial))
        log_mean = peak + math.log(
            float(np.mean(np.exp(partial - peak)))) if np.isfinite(peak) \
            else -np.inf
        if log_mean > best_log:
            best_log, best_t = log_mean, float(times[j])
    value = float(np.exp(best_log)) if best_log < _EXP_GUARD else float("inf")
    return ExponentialMomentEstimate(value=value, log_value=best_log,
                                     argmax_time=best_t)
