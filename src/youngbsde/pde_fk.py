"""Young PDE solvers through their probabilistic representations.

Linear terminal-value problems are evaluated by direct Feynman-Kac sampling:
u(t, x) is the Monte Carlo mean of u_T(X_T) weighted by the exponential of
the pathwise driver integral.  Nonlinear problems go through the double
approximation: time-mollified drivers and balls of growing radius, each
sub-problem solved by the localized least-squares scheme.  The whole-space
solution is operationally the largest-radius member of the sweep; decay fits
are always against that reference, recorded as such in the outputs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .bsde import (_EXP_GUARD, BsdeProblem, PicardConfig,
                   solve_bsde_with_localization)
# bench/tracer.py wraps solve_localized_bsde as bound in this module
from .bsde import solve_localized_bsde  # noqa: F401
from .diffusion import DiffusionSpec, simulate
from .drivers import SpaceTimeDriver, mollify_time, zero_driver
from .errors import DomainError, NumericalError
from .paths import TimeGrid
from .regression import line_fit
from .rng import hash64
from .young_calculus import step_increments, young_sum_batch

__all__ = [
    "PdeProblem",
    "NonLipschitzProblem",
    "PdeSolutionTable",
    "LocalizationDecayReport",
    "fk_point_estimate",
    "solve_linear_young_pde",
    "weak_solution_residual",
    "solve_young_pde_double_approximation",
    "localization_error_experiment",
]

_FK_CHUNK = 50_000


@dataclass
class PdeProblem:
    """Nonlinear Young PDE data: operator coefficients via the diffusion,
    reaction f(t,x,u,sigma^T grad u), Young coefficient g(u), driver, and a
    Lipschitz terminal condition.  Ellipticity must be declared positive."""

    diffusion: DiffusionSpec
    f: callable
    g: callable
    terminal: callable
    driver: SpaceTimeDriver
    horizon: float
    coefficient_bound: float = 1.0
    lipschitz_f: float = 1.0
    lipschitz_terminal: float = 1.0

    def __post_init__(self):
        if self.diffusion.ellipticity <= 0:
            raise DomainError(
                "PDE problems require a declared positive ellipticity")
        self._check_terminal_lipschitz()

    def _check_terminal_lipschitz(self, points: int = 48, seed: int = 9):
        rng = np.random.Generator(np.random.Philox(key=seed))
        x1 = rng.normal(scale=2.0, size=(points, self.diffusion.dim))
        x2 = x1 + rng.normal(scale=0.5, size=x1.shape)
        h1 = np.asarray(self.terminal(x1), dtype=float)
        h2 = np.asarray(self.terminal(x2), dtype=float)
        secant = np.abs(h1 - h2) / np.maximum(
            np.linalg.norm(x1 - x2, axis=1), 1e-12)
        worst = float(np.max(secant))
        if worst > self.lipschitz_terminal * (1 + 1e-3):
            raise DomainError(
                f"terminal condition violates its declared Lipschitz "
                f"constant {self.lipschitz_terminal:g} (secant {worst:g})")

    def bsde_problem(self, driver: SpaceTimeDriver, x0) -> BsdeProblem:
        return BsdeProblem(
            f=self.f, g=self.g, terminal=self.terminal, driver=driver,
            diffusion=self.diffusion, x0=np.asarray(x0, dtype=float),
            coefficient_bound=self.coefficient_bound,
            lipschitz_f=self.lipschitz_f)


@dataclass
class PdeSolutionTable:
    """Point estimates u(t, x) with Monte Carlo errors and provenance."""

    points: list
    values: np.ndarray
    standard_errors: np.ndarray
    radius: float
    mollify_delta: float | None
    samples: int
    seed: int
    extra: dict = field(default_factory=dict)

    def rows(self):
        for (t, x), u, se in zip(self.points, self.values,
                                 self.standard_errors):
            yield t, np.atleast_1d(x), float(u), float(se)


def fk_point_estimate(diffusion: DiffusionSpec, driver: SpaceTimeDriver,
                      terminal, t: float, x, horizon: float, steps: int,
                      samples: int, point_seed: int) -> tuple[float, float]:
    """Feynman-Kac estimate at one (t, x): chunked fresh simulations, global
    per-sample stream indices, weight = exp(pathwise driver integral).

    The variance comes from sums shifted by the first chunk's mean, so a
    large common offset in the payoff does not cancel it away."""
    if t > horizon + 1e-12:
        raise DomainError(f"evaluation time {t} beyond the horizon {horizon}")
    if abs(t - horizon) < 1e-12:
        val = float(np.asarray(terminal(np.asarray(x, dtype=float)
                                        .reshape(1, -1)))[0])
        return val, 0.0
    grid = TimeGrid(np.linspace(t, horizon, steps + 1), horizon)
    total, acc, shift, acc_dev, acc_dev_sq = 0, 0.0, None, 0.0, 0.0
    while total < samples:
        chunk = min(_FK_CHUNK, samples - total)
        batch = simulate(diffusion, x, grid, chunk, point_seed,
                         sample_offset=total)
        log_weight = np.sum(
            young_sum_batch(driver, grid.times, batch.paths), axis=1)
        if np.max(log_weight) > _EXP_GUARD:
            raise NumericalError(
                f"Feynman-Kac weight overflow: pathwise driver integral "
                f"{float(np.max(log_weight)):g} above {_EXP_GUARD:g}")
        payoff = np.asarray(terminal(batch.paths[:, -1, :]),
                            dtype=float).reshape(-1) * np.exp(log_weight)
        acc += float(payoff.sum())
        if shift is None:
            shift = float(payoff.mean())
        dev = payoff - shift
        acc_dev += float(dev.sum())
        acc_dev_sq += float(np.sum(dev * dev))
        total += chunk
    dev_mean = acc_dev / total
    var = max(acc_dev_sq / total - dev_mean * dev_mean, 0.0)
    return acc / total, math.sqrt(var / total)


def solve_linear_young_pde(terminal, diffusion: DiffusionSpec,
                           driver: SpaceTimeDriver, eval_points,
                           horizon: float, samples: int, seed: int,
                           steps: int = 128) -> PdeSolutionTable:
    """Linear problem (g(u) = u, unit coefficient): direct Feynman-Kac table.

    Each evaluation point gets its own deterministic sub-stream, keyed by the
    point index, so tables are reproducible and points are independent jobs.
    """
    if diffusion.ellipticity <= 0:
        raise DomainError("linear PDE solve requires declared ellipticity")
    values = np.empty(len(eval_points))
    ses = np.empty(len(eval_points))
    for j, (t, x) in enumerate(eval_points):
        values[j], ses[j] = fk_point_estimate(diffusion, driver, terminal,
                                               float(t), x, horizon, steps,
                                               samples, hash64(seed, j))
    return PdeSolutionTable(points=list(eval_points), values=values,
                            standard_errors=ses, radius=math.inf,
                            mollify_delta=None, samples=samples, seed=seed)


def _fourth_order_d1(fn, xs: np.ndarray, h: float) -> np.ndarray:
    return (-fn(xs + 2 * h) + 8 * fn(xs + h) - 8 * fn(xs - h)
            + fn(xs - 2 * h)) / (12 * h)


def _fourth_order_d2(fn, xs: np.ndarray, h: float) -> np.ndarray:
    return (-fn(xs + 2 * h) + 16 * fn(xs + h) - 30 * fn(xs)
            + 16 * fn(xs - h) - fn(xs - 2 * h)) / (12 * h * h)


def weak_solution_residual(times: np.ndarray, xs: np.ndarray,
                           u_values: np.ndarray, terminal, phi,
                           diffusion: DiffusionSpec,
                           driver: SpaceTimeDriver,
                           phi_derivatives=None) -> float:
    """Residual of the distributional identity satisfied by a linear Young
    PDE solution against a compactly supported test function (d = 1).

        int u(t)phi - int u(T)phi - int_t^T int u L*phi dx ds
                    - int [ int_t^T u(s,x) eta(ds,x) ] phi(x) dx

    The table u_values has shape (len(times), len(xs)) with times[0] = t and
    times[-1] = T.  The inner time integral of the driver term is the
    classical left-point Young sum per space node; L*phi comes from supplied
    (phi', phi'') or high-order finite differences of the closed-form phi.
    A small residual is evidence, not proof.
    """
    if diffusion.dim != 1:
        raise DomainError("weak-solution residual implemented for d = 1")
    times = np.asarray(times, dtype=float)
    xs = np.asarray(xs, dtype=float)
    u_values = np.asarray(u_values, dtype=float)
    if u_values.shape != (times.size, xs.size):
        raise DomainError("u table shape must be (times, xs)")
    phi_vals = np.asarray(phi(xs), dtype=float)
    peak = float(np.max(np.abs(phi_vals)))
    if peak == 0.0:
        raise DomainError("test function is identically zero on the grid")
    edge = max(abs(phi_vals[0]), abs(phi_vals[-1]))
    if edge > 1e-10 * peak:
        raise DomainError(
            "test function must be compactly supported inside the table's "
            f"spatial range (boundary magnitude {edge:g})")

    def sigma_sq(x):
        s = diffusion.sigma_at(0.0, x.reshape(-1, 1))[:, 0, 0]
        return s * s

    def drift(x):
        return diffusion.drift_at(0.0, x.reshape(-1, 1))[:, 0]

    h_fd = max(float(xs[1] - xs[0]) * 0.5, 1e-6)
    if phi_derivatives is not None:
        d1, d2 = phi_derivatives
        phi_d1 = np.asarray(d1(xs), dtype=float)
        phi_d2 = np.asarray(d2(xs), dtype=float)
        a_phi_d2 = (sigma_sq(xs) * phi_d2
                    + 2 * _fourth_order_d1(sigma_sq, xs, h_fd) * phi_d1
                    + _fourth_order_d2(sigma_sq, xs, h_fd) * phi_vals)
        b_phi_d1 = (drift(xs) * phi_d1
                    + _fourth_order_d1(drift, xs, h_fd) * phi_vals)
    else:
        a_phi = lambda x: sigma_sq(x) * np.asarray(phi(x), dtype=float)
        b_phi = lambda x: drift(x) * np.asarray(phi(x), dtype=float)
        a_phi_d2 = _fourth_order_d2(a_phi, xs, h_fd)
        b_phi_d1 = _fourth_order_d1(b_phi, xs, h_fd)
    lstar_phi = 0.5 * a_phi_d2 - b_phi_d1

    term_now = np.trapezoid(u_values[0] * phi_vals, xs)
    terminal_vals = np.asarray(terminal(xs.reshape(-1, 1)),
                               dtype=float).reshape(-1)
    term_final = np.trapezoid(terminal_vals * phi_vals, xs)

    space_integrand = np.trapezoid(u_values * lstar_phi[None, :], xs, axis=1)
    term_operator = np.trapezoid(space_integrand, times)

    nodes = np.broadcast_to(xs[:, None, None], (xs.size, times.size, 1))
    young_per_node = np.zeros(xs.size)
    for u_j, deta in zip(u_values, step_increments(driver, times, nodes)):
        young_per_node += u_j * deta[:, 0]
    term_young = np.trapezoid(young_per_node * phi_vals, xs)

    return float(term_now - term_final - term_operator - term_young)


def solve_young_pde_double_approximation(problem: PdeProblem, deltas, radii,
                                         eval_points, samples: int, seed: int,
                                         steps: int = 64,
                                         basis_degree: int = 2,
                                         picard: PicardConfig | None = None
                                         ) -> tuple[PdeSolutionTable, dict]:
    """Sweep mollification widths (decreasing) and ball radii (increasing);
    return the finest table plus the double-index convergence diagnostics.

    Sampling noise is keyed by (seed, evaluation point) only, so every
    (radius, mollification) pair shares paths and the convergence table is a
    common-random-number comparison.
    """
    deltas = list(deltas)
    radii = list(radii)
    if any(d2 >= d1 for d1, d2 in zip(deltas, deltas[1:])):
        raise DomainError("mollification widths must decrease")
    mollified = [mollify_time(problem.driver, delta, problem.horizon)
                 for delta in deltas]
    values = np.empty((len(radii), len(deltas), len(eval_points)))
    ses = np.empty_like(values)
    for j, (t, x) in enumerate(eval_points):
        grid = TimeGrid(np.linspace(float(t), problem.horizon, steps + 1),
                        problem.horizon)
        batch = simulate(problem.diffusion, x, grid, samples, hash64(seed, j))
        for mi, driver in enumerate(mollified):
            _, table = solve_bsde_with_localization(
                problem.bsde_problem(driver, x), radii, grid, samples,
                batch.seed, basis_degree=basis_degree, picard=picard,
                batch=batch)
            values[:, mi, j] = [row["y0"] for row in table]
            ses[:, mi, j] = [row["y0_standard_error"] for row in table]
    finest = PdeSolutionTable(points=list(eval_points),
                              values=values[-1, -1],
                              standard_errors=ses[-1, -1],
                              radius=float(radii[-1]),
                              mollify_delta=float(deltas[-1]),
                              samples=samples, seed=seed)
    gap_to_finest = np.max(
        np.abs(values - values[-1, -1][None, None, :]), axis=2)
    radius_steps = np.max(np.abs(np.diff(values, axis=0)), axis=2)
    delta_steps = np.max(np.abs(np.diff(values, axis=1)), axis=2)
    diagnostics = {
        "radii": radii,
        "deltas": deltas,
        "values": values,
        "standard_errors": ses,
        "gap_to_finest": gap_to_finest,
        "radius_stabilization": radius_steps,
        "delta_stabilization": delta_steps,
    }
    return finest, diagnostics


# -- localization error for non-Lipschitz reactions -------------------------

@dataclass
class NonLipschitzProblem:
    """Reaction F = f0 + F0 with polynomially growing Lipschitz constants.

    Declared growth exponents: theta1 < 1 for the z-Lipschitz weight,
    theta2 < 2 for the y-Lipschitz weight, theta3 >= 0 for the size of F;
    all secant-spot-checked on random clouds against the declared constant.
    """

    f0: callable
    big_f0: callable
    terminal: callable
    diffusion: DiffusionSpec
    horizon: float
    theta1: float = 0.0
    theta2: float = 0.0
    theta3: float = 0.0
    growth_constant: float = 1.0

    def __post_init__(self):
        if not (0 <= self.theta1 < 1 and 0 <= self.theta2 < 2
                and self.theta3 >= 0):
            raise DomainError(
                "growth split requires theta1 in [0,1), theta2 in [0,2), "
                "theta3 >= 0")

    def reaction(self, t, x, y, z):
        return (np.asarray(self.f0(t, x, y, z), dtype=float)
                + np.asarray(self.big_f0(t, x, y, z), dtype=float))

    def spot_check(self, seed: int = 0, points: int = 64) -> None:
        rng = np.random.Generator(np.random.Philox(key=seed + 3))
        x = rng.normal(scale=2.0, size=(points, self.diffusion.dim))
        xn = np.linalg.norm(x, axis=1)
        y1, y2 = rng.normal(size=points), rng.normal(size=points)
        z1 = rng.normal(size=(points, self.diffusion.dim))
        z2 = rng.normal(size=(points, self.diffusion.dim))
        c = self.growth_constant * (1 + 1e-3)
        size = np.abs(np.asarray(self.big_f0(0.5, x, y1, z1), dtype=float))
        if np.any(size > c * (1 + xn**self.theta3)):
            raise DomainError("F0 exceeds its declared size growth")
        dy = np.abs(np.asarray(self.big_f0(0.5, x, y1, z1), dtype=float)
                    - np.asarray(self.big_f0(0.5, x, y2, z1), dtype=float))
        if np.any(dy > c * (1 + xn**self.theta2) * np.abs(y1 - y2) + 1e-12):
            raise DomainError("F0 exceeds its declared y-Lipschitz growth")
        dz = np.abs(np.asarray(self.big_f0(0.5, x, y1, z1), dtype=float)
                    - np.asarray(self.big_f0(0.5, x, y1, z2), dtype=float))
        if np.any(dz > c * (1 + xn**self.theta1)
                  * np.linalg.norm(z1 - z2, axis=1) + 1e-12):
            raise DomainError("F0 exceeds its declared z-Lipschitz growth")

    def bsde_problem(self, x0) -> BsdeProblem:
        dim = self.diffusion.dim
        return BsdeProblem(
            f=self.reaction, g=lambda y: np.zeros((np.size(y), 1)),
            terminal=self.terminal, driver=zero_driver(dim=dim),
            diffusion=self.diffusion, x0=np.asarray(x0, dtype=float),
            coefficient_bound=1.0, lipschitz_f=float("inf"))


@dataclass
class LocalizationDecayReport:
    """Per-point OLS fits of log gap against squared radius, plus the trend
    of intercepts in |x|^2 across the evaluation set."""

    eval_points: list
    radii: np.ndarray
    reference_radius: float
    gaps: np.ndarray
    gap_ses: np.ndarray
    saturated: np.ndarray
    slopes: np.ndarray
    intercepts: np.ndarray
    r_squared: np.ndarray
    intercept_x2_slope: float
    reference_values: np.ndarray


def localization_error_experiment(problem: NonLipschitzProblem, radii,
                                  eval_xs, samples: int, seed: int,
                                  steps: int = 64,
                                  reference_radius: float | None = None,
                                  basis_degree: int = 2,
                                  min_detectable_z: float = 0.0
                                  ) -> LocalizationDecayReport:
    """Fit the decay of |u^n(0,x) - u^ref(0,x)| in n^2 on common random
    numbers, per evaluation point.

    The whole-space solution is operationalized as the run at
    reference_radius (default: beyond the largest requested radius).  Radii
    whose gap is exactly zero are saturated (no sample distinguishes the
    balls) and are excluded from the log fit; a positive min_detectable_z
    additionally drops radii whose gap is below that multiple of its paired
    standard error, with a warning.
    """
    radii = np.sort(np.asarray(radii, dtype=float))
    if radii.size == 0:
        raise DomainError("localization error needs at least one radius")
    if reference_radius is None:
        reference_radius = float(radii[-1] + 1.0)
    if reference_radius <= radii[-1]:
        raise DomainError("reference radius must exceed the largest radius")
    problem.spot_check(seed=seed)
    grid = TimeGrid.uniform(problem.horizon, steps)
    n_pts = len(eval_xs)
    gaps = np.empty((n_pts, radii.size))
    gap_ses = np.empty_like(gaps)
    saturated = np.zeros_like(gaps, dtype=bool)
    slopes = np.empty(n_pts)
    intercepts = np.empty(n_pts)
    r2s = np.empty(n_pts)
    ref_values = np.empty(n_pts)

    for j, x in enumerate(eval_xs):
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        ref, table = solve_bsde_with_localization(
            problem.bsde_problem(x_arr), np.append(radii, reference_radius),
            grid, samples, hash64(seed, j), basis_degree=basis_degree)
        ref_values[j] = ref.y0
        usable_x, usable_y = [], []
        for k, row in enumerate(table[:-1]):
            radius, gap, se = row["radius"], row["gap"], row["se"]
            gaps[j, k] = gap
            gap_ses[j, k] = se
            if gap == 0.0:
                saturated[j, k] = True
                continue
            if min_detectable_z > 0 and gap < min_detectable_z * se:
                warnings.warn(
                    f"radius {radius:g} at x={x_arr.tolist()}: gap {gap:.3e} "
                    f"below {min_detectable_z:g} paired standard errors, "
                    "dropped from the decay fit")
                saturated[j, k] = True
                continue
            usable_x.append(radius**2)
            usable_y.append(math.log(gap))
        if len(usable_x) < 2:
            slopes[j] = float("nan")
            intercepts[j] = float("nan")
            r2s[j] = float("nan")
            continue
        slopes[j], intercepts[j], r2s[j] = line_fit(usable_x, usable_y)

    x2 = np.array([float(np.sum(np.square(np.atleast_1d(x))))
                   for x in eval_xs])
    ok = np.isfinite(intercepts)
    if ok.sum() >= 2 and np.ptp(x2[ok]) > 0:
        trend = line_fit(x2[ok], intercepts[ok])[0]
    else:
        trend = float("nan")
    return LocalizationDecayReport(
        eval_points=[np.atleast_1d(np.asarray(x, dtype=float))
                     for x in eval_xs],
        radii=radii, reference_radius=float(reference_radius), gaps=gaps,
        gap_ses=gap_ses, saturated=saturated, slopes=slopes,
        intercepts=intercepts, r_squared=r2s, intercept_x2_slope=trend,
        reference_values=ref_values)
