"""Young PDE solvers through their probabilistic representations.

A `PdeProblem` is a `BsdeProblem` plus the operator's diffusion, the horizon
and the terminal's declared Lipschitz constant.  Linear terminal-value
problems are evaluated by direct Feynman-Kac sampling: u(t, x) is the Monte
Carlo mean of u_T(X_T) weighted by the exponential of the pathwise driver
integral.  Nonlinear problems go through the double approximation:
time-mollified drivers and balls of growing radius, each sub-problem solved
by the localized least-squares scheme.  Both solvers require a declared
positive ellipticity; the localization-error experiment, which solves the
problem it is given on growing balls, does not.  The whole-space solution is
operationally the largest-radius member of the sweep; decay fits are always
against that reference, recorded as such in the outputs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .bsde import (_EXP_GUARD, BsdeProblem, PicardConfig, _check_secant,
                   _contract_cloud, _standard_error,
                   solve_bsde_with_localization)
# bench/tracer.py wraps solve_localized_bsde as bound in this module
from .bsde import solve_localized_bsde  # noqa: F401
from .diffusion import DiffusionSpec, simulate
from .drivers import SpaceTimeDriver, mollify_time
from .errors import DomainError, NumericalError
from .paths import TimeGrid
from .regression import line_fit
from .rng import hash64
from .young_calculus import step_increments, young_sum_batch

__all__ = [
    "PdeProblem",
    "GROWTH_EXPONENTS",
    "check_reaction_growth",
    "PdeSolutionTable",
    "LocalizationDecayReport",
    "fk_point_estimate",
    "solve_linear_young_pde",
    "weak_solution_residual",
    "solve_young_pde_double_approximation",
    "localization_error_experiment",
]

_FK_CHUNK = 50_000


@dataclass(kw_only=True)
class PdeProblem(BsdeProblem):
    """Nonlinear Young PDE data: a backward equation plus the diffusion of
    its operator, the horizon and the declared Lipschitz constant of the
    terminal condition, checked by secants at construction."""

    diffusion: DiffusionSpec
    horizon: float
    lipschitz_terminal: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        c = _contract_cloud(self.diffusion.dim)
        _check_secant(
            f"terminal condition violates its declared Lipschitz constant "
            f"{self.lipschitz_terminal:g}",
            np.asarray(self.terminal(c.x), dtype=float)
            - np.asarray(self.terminal(c.x + c.dx), dtype=float),
            np.linalg.norm(c.dx, axis=1), self.lipschitz_terminal)


def _check_elliptic(diffusion: DiffusionSpec) -> None:
    if diffusion.ellipticity <= 0:
        raise DomainError("PDE solves require a declared positive ellipticity")


@dataclass
class PdeSolutionTable:
    """Point estimates u(t, x) with Monte Carlo errors."""

    points: list
    values: np.ndarray
    standard_errors: np.ndarray


def fk_point_estimate(diffusion: DiffusionSpec, driver: SpaceTimeDriver,
                      terminal, t: float, x, horizon: float, steps: int,
                      samples: int, point_seed: int) -> tuple[float, float]:
    """Feynman-Kac estimate at one (t, x) and its standard error: chunked
    fresh simulations, global sample indices across chunks, weight =
    exp(pathwise driver integral).  Only each chunk's payoffs are kept."""
    if t > horizon + 1e-12:
        raise DomainError(f"evaluation time {t} beyond the horizon {horizon}")
    if abs(t - horizon) < 1e-12:
        val = float(np.asarray(terminal(np.asarray(x, dtype=float)
                                        .reshape(1, -1)))[0])
        return val, 0.0
    grid = TimeGrid(np.linspace(t, horizon, steps + 1), horizon)
    payoffs = []
    for total in range(0, samples, _FK_CHUNK):
        chunk = min(_FK_CHUNK, samples - total)
        batch = simulate(diffusion, x, grid, chunk, point_seed,
                         sample_offset=total)
        log_weight = np.sum(
            young_sum_batch(driver, grid.times, batch.paths), axis=1)
        if np.max(log_weight) > _EXP_GUARD:
            raise NumericalError(
                f"Feynman-Kac weight overflow: pathwise driver integral "
                f"{float(np.max(log_weight)):g} above {_EXP_GUARD:g}")
        payoffs.append(np.asarray(terminal(batch.paths[:, -1, :]),
                                  dtype=float).reshape(-1)
                       * np.exp(log_weight))
    payoff = np.concatenate(payoffs)
    return float(payoff.mean()), _standard_error(payoff)


def solve_linear_young_pde(terminal, diffusion: DiffusionSpec,
                           driver: SpaceTimeDriver, eval_points,
                           horizon: float, samples: int, seed: int,
                           steps: int = 128) -> PdeSolutionTable:
    """Linear problem (g(u) = u, unit coefficient): direct Feynman-Kac table.

    Each evaluation point gets its own deterministic sub-stream, keyed by the
    point index, so tables are reproducible and points are independent jobs.
    """
    _check_elliptic(diffusion)
    values = np.empty(len(eval_points))
    ses = np.empty(len(eval_points))
    for j, (t, x) in enumerate(eval_points):
        values[j], ses[j] = fk_point_estimate(diffusion, driver, terminal,
                                               float(t), x, horizon, steps,
                                               samples, hash64(seed, j))
    return PdeSolutionTable(points=list(eval_points), values=values,
                            standard_errors=ses)


def _fourth_order_d1(fn, xs: np.ndarray, h: float) -> np.ndarray:
    return (-fn(xs + 2 * h) + 8 * fn(xs + h) - 8 * fn(xs - h)
            + fn(xs - 2 * h)) / (12 * h)


def _fourth_order_d2(fn, xs: np.ndarray, h: float) -> np.ndarray:
    return (-fn(xs + 2 * h) + 16 * fn(xs + h) - 30 * fn(xs)
            + 16 * fn(xs - h) - fn(xs - 2 * h)) / (12 * h * h)


def weak_solution_residual(times: np.ndarray, xs: np.ndarray,
                           u_values: np.ndarray, terminal, phi,
                           diffusion: DiffusionSpec,
                           driver: SpaceTimeDriver) -> float:
    """Residual of the distributional identity satisfied by a linear Young
    PDE solution against a compactly supported test function (d = 1).

        int u(t)phi - int u(T)phi - int_t^T int u L*phi dx ds
                    - int [ int_t^T u(s,x) eta(ds,x) ] phi(x) dx

    The table u_values has shape (len(times), len(xs)) with times[0] = t and
    times[-1] = T.  The inner time integral of the driver term is the
    classical left-point Young sum per space node; L*phi comes from
    high-order finite differences of the closed-form phi.
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
    a_phi = lambda x: sigma_sq(x) * np.asarray(phi(x), dtype=float)
    b_phi = lambda x: drift(x) * np.asarray(phi(x), dtype=float)
    lstar_phi = (0.5 * _fourth_order_d2(a_phi, xs, h_fd)
                 - _fourth_order_d1(b_phi, xs, h_fd))

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
    common-random-number comparison.  The diagnostics hold the values and
    standard errors, shape (radii, widths, points), and the largest change
    between successive radii, shape (radii - 1, widths).
    """
    _check_elliptic(problem.diffusion)
    deltas = list(deltas)
    radii = list(radii)
    if any(d2 >= d1 for d1, d2 in zip(deltas, deltas[1:])):
        raise DomainError("mollification widths must decrease")
    problems = [replace(problem, driver=mollify_time(problem.driver, delta,
                                                     problem.horizon))
                for delta in deltas]
    values = np.empty((len(radii), len(deltas), len(eval_points)))
    ses = np.empty_like(values)
    for j, (t, x) in enumerate(eval_points):
        grid = TimeGrid(np.linspace(float(t), problem.horizon, steps + 1),
                        problem.horizon)
        batch = simulate(problem.diffusion, x, grid, samples, hash64(seed, j))
        for mi, sub_problem in enumerate(problems):
            _, table = solve_bsde_with_localization(
                sub_problem, radii, batch, basis_degree=basis_degree,
                picard=picard)
            values[:, mi, j] = [row["y0"] for row in table]
            ses[:, mi, j] = [row["y0_standard_error"] for row in table]
    finest = PdeSolutionTable(points=list(eval_points),
                              values=values[-1, -1],
                              standard_errors=ses[-1, -1])
    return finest, {
        "values": values,
        "standard_errors": ses,
        "radius_stabilization": np.max(np.abs(np.diff(values, axis=0)),
                                       axis=2),
    }


# -- localization error: Cauchy-Dirichlet problems on balls against Cauchy --

# admissible growth exponents, also the localization-error config's checks
GROWTH_EXPONENTS = {"theta1": lambda v: 0 <= v < 1,
                    "theta2": lambda v: 0 <= v < 2,
                    "theta3": lambda v: v >= 0}


def check_reaction_growth(f, dim: int, theta1: float, theta2: float,
                          theta3: float) -> None:
    """Check the declared growth split of a non-Lipschitz reaction f by
    secants on the contract cloud: |f| grows like 1 + |x|^theta3, its
    y-Lipschitz weight like 1 + |x|^theta2 and its z-Lipschitz weight like
    1 + |x|^theta1, each exponent admissible under GROWTH_EXPONENTS."""
    thetas = {"theta1": theta1, "theta2": theta2, "theta3": theta3}
    if not all(GROWTH_EXPONENTS[k](v) for k, v in thetas.items()):
        raise DomainError(
            "growth split requires theta1 in [0,1), theta2 in [0,2), "
            "theta3 >= 0")
    c = _contract_cloud(dim)
    weight = lambda theta: 1 + np.linalg.norm(c.x, axis=1) ** theta
    reaction = lambda y, z: np.asarray(f(0.5, c.x, y, z), dtype=float)
    _check_secant("reaction exceeds its declared size growth",
                  reaction(c.y1, c.z1), 1.0, weight(theta3))
    _check_secant("reaction exceeds its declared y-Lipschitz growth",
                  reaction(c.y1, c.z1) - reaction(c.y2, c.z1),
                  np.abs(c.y1 - c.y2), weight(theta2))
    _check_secant("reaction exceeds its declared z-Lipschitz growth",
                  reaction(c.y1, c.z1) - reaction(c.y1, c.z2),
                  np.linalg.norm(c.z1 - c.z2, axis=1), weight(theta1))


@dataclass
class LocalizationDecayReport:
    """Per-point OLS fits of log gap against squared radius, plus the trend
    of intercepts in |x|^2 across the evaluation set."""

    eval_points: list
    radii: np.ndarray
    gaps: np.ndarray
    gap_ses: np.ndarray
    saturated: np.ndarray
    slopes: np.ndarray
    intercepts: np.ndarray
    r_squared: np.ndarray
    intercept_x2_slope: float
    reference_values: np.ndarray


def localization_error_experiment(problem: PdeProblem, radii,
                                  eval_xs, samples: int, seed: int,
                                  steps: int = 64,
                                  reference_radius: float | None = None,
                                  basis_degree: int = 2,
                                  min_detectable_z: float = 0.0
                                  ) -> LocalizationDecayReport:
    """Fit the decay of |u^n(0,x) - u^ref(0,x)| in n^2 on common random
    numbers, per evaluation point, for the problem as given.

    Each point's batch is simulated from hash64(seed, point index), and
    all its radii are solved on it.  The whole-space solution is
    operationalized as the run at reference_radius (default: beyond the
    largest requested radius).  Radii whose gap is exactly zero are
    saturated (no sample distinguishes the balls) and are excluded from the
    log fit; a positive min_detectable_z additionally drops radii whose gap
    is below that multiple of its paired standard error, with a warning.
    """
    radii = np.sort(np.asarray(radii, dtype=float))
    if radii.size == 0:
        raise DomainError("localization error needs at least one radius")
    if reference_radius is None:
        reference_radius = float(radii[-1] + 1.0)
    if reference_radius <= radii[-1]:
        raise DomainError("reference radius must exceed the largest radius")
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
        batch = simulate(problem.diffusion, x_arr, grid, samples,
                         hash64(seed, j))
        ref, table = solve_bsde_with_localization(
            problem, np.append(radii, reference_radius), batch,
            basis_degree=basis_degree)
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
        radii=radii, gaps=gaps, gap_ses=gap_ses, saturated=saturated,
        slopes=slopes, intercepts=intercepts, r_squared=r2s,
        intercept_x2_slope=trend, reference_values=ref_values)
