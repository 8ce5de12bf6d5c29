"""Backward equation solvers along the forward diffusion.

The nonlinear equation
    dY = -f(t,X,Y,Z) dt - g(Y) eta(dt,X) + Z dW
is solved by a localized least-squares Monte Carlo scheme, stopped at the
first exit of X from a centered ball, with exited samples absorbed at
their boundary datum.  The linear equation has a Feynman-Kac formula,
`pde_fk.solve_linear_bsde`.

Conditional expectations are global polynomial regressions on the state
restricted to not-yet-exited samples.  Z carries the documented O(sqrt(dt))
bias of the Brownian-increment regression representation.

The localized scheme is backward triangular: Y_i depends only on Y_{i+1},
on Z_i (a fit of Y_{i+1}) and on itself.  So the solver makes one backward
pass.  At each step it builds the basis of the active samples and its
ridge coefficient operator once, fits Z_i once from Y_{i+1}, and iterates
the Y_i fit in place (a per-step Picard fixed point) with that operator, so
each fit is one matrix product.  This has the fixed point of a global
Picard iteration over the whole horizon.  The active samples, the basis
and the operator depend only on the paths and the radius, so
`solve_localized_bsdes` solves several problems on one batch and radius in
one pass, sharing them; `solve_localized_bsde` is its one-problem case.

Every solver takes the path batch it solves on and none simulates: the
equation types carry coefficients only, and one batch serves a whole sweep
of radii.  Every solver and diagnostic reads the driver increments from
`PathBatch.driver_increments`, which the batch computes once per driver
and keeps, so the radii of a sweep share one step-major array per driver.

The localized solver reports, besides y0, one value per sample whose mean
is y0: the pathwise sum of datum and driver terms.  A standard error is
always the spread of those values over sqrt(samples); a paired standard
error is the spread of their per-sample difference between two solves on
one batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .diffusion import PathBatch, check_radii, first_exit
# bench/tracer.py wraps simulate as bound in this module
from .diffusion import simulate  # noqa: F401
from .drivers import SpaceTimeDriver
from .errors import DomainError
from .regression import (fit_predict, poly_basis, ridge_fit, ridge_operator,
                         ridge_solve)

__all__ = [
    "BsdeProblem",
    "BsdeSolution",
    "PicardConfig",
    "check_t_index",
    "tower_rule_defect",
    "solve_localized_bsde",
    "solve_localized_bsdes",
    "martingale_residual",
    "solve_bsde_with_localization",
    "exponential_moment_diagnostic",
]


def _standard_error(values: np.ndarray) -> float:
    """Standard error of the mean of per-sample values; 0 for fewer than
    two samples."""
    if values.size < 2:
        return 0.0
    return float(np.std(values, ddof=1) / math.sqrt(values.size))


def check_t_index(t_index: int, points: int) -> None:
    """The tower-rule sums start at grid index t_index, which must leave at
    least one step on a grid of the given number of points; callers check
    before they simulate."""
    if not 0 <= t_index <= points - 2:
        raise DomainError(f"t_index {t_index} outside [0, {points - 2}] on "
                          f"a grid of {points} points")


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
    if driver.channels != 1:
        raise DomainError(f"tower-rule defect implemented for one driver "
                          f"channel, got {driver.channels}")
    times = batch.grid.times
    S, m = batch.samples, times.size
    check_t_index(t_index, m)
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


def _check_declared(problem, *names) -> None:
    """Declared constants may be inf but not NaN, which passes every secant."""
    for name in names:
        if math.isnan(getattr(problem, name)):
            raise DomainError(f"declared {name} is NaN")


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
    contract cloud at construction; neither may be NaN); terminal
    h(x:(S,d)) -> (S,).  The start point and the forward dynamics are those
    of the batch a solve is given.
    """

    f: callable
    g: callable
    terminal: callable
    driver: SpaceTimeDriver
    coefficient_bound: float = 1.0
    lipschitz_f: float = 1.0

    def __post_init__(self):
        _check_declared(self, "coefficient_bound", "lipschitz_f")
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
    """The localized solver's estimate and its diagnostics."""

    y0: float
    # per step, None where no sample was active
    y_coefficients: list
    z_coefficients: list
    y_paths: np.ndarray
    z_paths: np.ndarray
    radius: float
    # the largest per-step iteration count, each visited step's final gap
    # (last step first), and whether every one of those gaps is below the
    # tolerance
    picard_iterations: int
    picard_gaps: list
    converged: bool
    # one value per sample, in sample order, whose mean is y0 (up to the
    # ridge's shrinkage); its spread is the standard error
    y0_samples: np.ndarray
    y0_standard_error: float
    exit_probability: float
    max_abs_y: float


def solve_localized_bsdes(problems, radius: float, batch: PathBatch,
                          basis_degree: int = 2,
                          picard: PicardConfig | None = None
                          ) -> list[BsdeSolution]:
    """Backward induction with regression conditional expectations on each
    given equation stopped at the first exit from the centered ball of the
    given radius, all in one backward pass over the given path batch; one
    solution per problem, in order.

    The projection depends only on the paths: one first exit serves every
    problem, and at step i, from the last step back to the first, one set
    of active samples (stop index > i), one basis and one ridge coefficient
    operator.  Exited samples stay frozen at each problem's boundary datum.
    For each problem in turn, Z_i is fitted once from its Y_{i+1}; Y_i
    solves the fixed point
        Y_i = P_i[Y_{i+1} + f(t_i, X_i, Y_i, Z_i) dt + g(Y_i) . deta_i],
    iterated from Y_{i+1} with the step's operator until the sup change of
    one iteration (the step's gap) drops below the Picard tolerance, or for
    at most max_iterations iterations.  Each problem keeps its own datum,
    fits, Picard loop and solution, with the arithmetic of a lone solve.
    Non-convergence is flagged on the result, not raised.

    Every basis has an intercept, so each fit's mean is its targets' mean
    and y0 is the mean of the pathwise sum
        P = datum + sum_{i < stop} (f_i dt_i + g(Y_i) . deta_i)
    of each step's last target; y0_samples holds P and the standard error
    is its spread.
    """
    if not problems:
        raise DomainError("need at least one problem")
    picard = picard or PicardConfig()
    check_radii([radius], float(np.linalg.norm(batch.paths[0, 0])))
    times = batch.grid.times
    S, m = batch.samples, times.size
    dts = np.diff(times)

    exit_report = first_exit(batch, radius)
    stop_index = exit_report.stop_index
    runs = []
    for problem in problems:
        datum = problem.terminal_at(batch, stop_index)
        # exited samples keep their datum in y and zero in z: only active
        # rows are ever written
        runs.append(SimpleNamespace(
            problem=problem, deta=batch.driver_increments(problem.driver),
            y=np.tile(datum, (m, 1)), z=np.zeros((m - 1, S, batch.dim)),
            y_coeffs=[None] * (m - 1), z_coeffs=[None] * (m - 1),
            pathwise=datum.copy(), gaps=[], iterations=0))
    for i in range(m - 2, -1, -1):
        active = np.flatnonzero(stop_index > i)
        if active.size == 0:
            continue
        if active.size == S:  # views, not gathers, while none has exited
            active = slice(None)
        x_i = batch.paths[active, i]
        basis = poly_basis(x_i, basis_degree)
        operator = ridge_operator(basis)
        for run in runs:
            y_next = run.y[i + 1, active]
            run.z_coeffs[i] = ridge_solve(operator, y_next[:, None]
                                          * batch.increments[active, i]
                                          / dts[i])
            z_fit = basis @ run.z_coeffs[i]
            run.z[i, active] = z_fit
            deta_i = run.deta[i, active]
            y_i, step, gap, k = y_next, 0.0, math.inf, 0
            for k in range(1, picard.max_iterations + 1):
                f_val = np.asarray(run.problem.f(times[i], x_i, y_i, z_fit),
                                   dtype=float)
                step = f_val * dts[i] + _young_term(run.problem, y_i, deta_i)
                run.y_coeffs[i] = ridge_solve(operator, y_next + step)
                y_fit = basis @ run.y_coeffs[i]
                gap = float(np.abs(y_fit - y_i).max())
                y_i = y_fit
                if gap < picard.tolerance:
                    break
            run.y[i, active] = y_i
            run.pathwise[active] += step
            run.gaps.append(gap)
            run.iterations = max(run.iterations, k)

    return [BsdeSolution(
        y0=float(run.y[0].mean()), y_coefficients=run.y_coeffs,
        z_coefficients=run.z_coeffs, y_paths=run.y.T,
        z_paths=run.z.transpose(1, 0, 2), radius=float(radius),
        picard_iterations=run.iterations, picard_gaps=run.gaps,
        converged=all(gap < picard.tolerance for gap in run.gaps),
        y0_samples=run.pathwise,
        y0_standard_error=_standard_error(run.pathwise),
        exit_probability=exit_report.probability,
        max_abs_y=float(np.max(np.abs(run.y)))) for run in runs]


def solve_localized_bsde(problem: BsdeProblem, radius: float,
                         batch: PathBatch, basis_degree: int = 2,
                         picard: PicardConfig | None = None) -> BsdeSolution:
    """The one-problem case of `solve_localized_bsdes`: the equation
    stopped at the first exit from the centered ball of the given radius,
    solved in one backward pass over the given path batch."""
    (solution,) = solve_localized_bsdes([problem], radius, batch,
                                        basis_degree=basis_degree,
                                        picard=picard)
    return solution


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
    radii = check_radii(radii, float(np.linalg.norm(batch.paths[0, 0])))

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
    log_value: float
    argmax_time: float


def exponential_moment_diagnostic(alpha_values: np.ndarray,
                                  driver: SpaceTimeDriver, batch: PathBatch,
                                  exponent: float, radius: float
                                  ) -> ExponentialMomentEstimate:
    """Estimate sup_t E[exp(q int_{t ^ T_n}^{T_n} alpha eta(dr, X))] on the
    grid; the localization constant monitor.

    Works in log space throughout and reports only the log of the
    supremum, so no supremum overflows.
    """
    if exponent <= 0:
        raise DomainError("exponent must be positive")
    if driver.channels != 1:
        raise DomainError(f"exponential moment implemented for one driver "
                          f"channel, got {driver.channels}")
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
    return ExponentialMomentEstimate(log_value=best_log, argmax_time=best_t)
