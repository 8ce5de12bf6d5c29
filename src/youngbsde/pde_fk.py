"""Young PDE solvers through their probabilistic representations.

A `PdeProblem` is a `BsdeProblem` plus the operator's diffusion, the horizon
and the terminal's declared Lipschitz constant.  The linear Feynman-Kac
formula is one function, `solve_linear_bsde`:
    Y_0 = E[exp(sum_i alpha_i int eta_i(dr, X)) xi M_T]
with constant coefficients alpha_i, M the exponential martingale of a drift
change, and the driver integral streamed by `young_sum_batch`.  Linear
terminal-value problems are evaluated by it with alpha = 1 and no drift
change, one batch chunk at a time: u(t, x) is the Monte Carlo mean of
u_T(X_T) weighted by the exponential of the pathwise driver integral.
Nonlinear problems go through the double approximation: time-mollified
drivers and balls of growing radius, each sub-problem solved by the
localized least-squares scheme.  Both PDE solvers require a declared
positive ellipticity; the localization-error experiment, which solves the
problem it is given on growing balls, does not.  The whole-space solution
is operationally the largest-radius member of the sweep; decay fits are
always against that reference, recorded as such in the outputs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .bsde import (BsdeProblem, BsdeSolution, PicardConfig, _check_secant,
                   _contract_cloud, _log_girsanov_weight, _standard_error,
                   solve_bsde_with_localization, solve_localized_bsdes)
# bench/tracer.py wraps solve_localized_bsde as bound in this module
from .bsde import solve_localized_bsde  # noqa: F401
from .diffusion import DiffusionSpec, PathBatch, check_radii, simulate
from .drivers import SpaceTimeDriver, mollify_time
from .errors import DomainError
from .paths import TimeGrid
from .regression import line_fit
from .rng import hash64
# bench/tracer.py wraps young_sum_batch as bound in this module
from .young_calculus import (_check_log_weight, step_increments,
                             young_sum_batch)

__all__ = [
    "LinearBsdeSpec",
    "solve_linear_bsde",
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


@dataclass
class LinearBsdeSpec:
    """Coefficients of the scalar linear equation
    Y_t = xi + sum_i int alpha_i Y eta_i(dr, X) + int Z G dr - int Z dW.

    alpha is a constant, or one constant per driver channel;
    drift_change(t, x) -> (S, d) or None; terminal(paths (S, m, d)) -> (S,)
    evaluated on whole simulated paths.  The declared drift-change bound is
    spot-checked on every visited state of the batch a solve is given.
    """

    alpha: float | np.ndarray
    terminal: callable
    driver: SpaceTimeDriver
    drift_change: callable = None
    drift_change_bound: float | None = None

    def drift_change_at(self, t: float, x: np.ndarray) -> np.ndarray:
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
                      ) -> BsdeSolution:
    """Y_0 of the linear equation by the Feynman-Kac formula at t = 0,
        Y_0 = E[exp(sum_i alpha_i int eta_i(dr, X)) xi M_T],
    on the given path batch, with M the exponential martingale of the drift
    change (1 without one): the mean of one payoff per sample, whose spread
    gives the standard error.  Raises NumericalError when a sample's log
    weight, the exponent plus log M_T, passes log(FLOW_OVERFLOW_GUARD).  The
    control process Z is not produced by this formula; Z estimation belongs
    to the regression pathway of the localized solver and any Z here is None.
    """
    times = batch.grid.times
    exponent = np.sum(np.asarray(spec.alpha, dtype=float)
                      * young_sum_batch(spec.driver, times, batch.paths),
                      axis=1)
    log_m = 0.0
    if spec.drift_change is not None:
        g_vals = np.empty((batch.samples, times.size - 1, batch.dim))
        for i in range(times.size - 1):
            g_vals[:, i] = spec.drift_change_at(times[i], batch.paths[:, i])
        log_m = _log_girsanov_weight(g_vals, batch.increments, np.diff(times))
    _check_log_weight(exponent + log_m, "Feynman-Kac weight")
    xi = np.asarray(spec.terminal(batch.paths), dtype=float).reshape(
        batch.samples)
    payoff = np.exp(exponent) * xi * np.exp(log_m)
    return BsdeSolution(y0=float(payoff.mean()), y_coefficients=None,
                        z_coefficients=None, y_paths=None, z_paths=None,
                        radius=math.inf, picard_iterations=0, picard_gaps=[],
                        converged=True, y0_samples=payoff,
                        y0_standard_error=_standard_error(payoff))


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
    """Feynman-Kac estimate at one (t, x) and its standard error: the
    linear formula with alpha = 1 on chunked fresh simulations, global
    sample indices across chunks.  Only each chunk's payoffs are kept."""
    _check_elliptic(diffusion)
    if t > horizon + 1e-12:
        raise DomainError(f"evaluation time {t} beyond the horizon {horizon}")
    if abs(t - horizon) < 1e-12:
        val = float(np.asarray(terminal(np.asarray(x, dtype=float)
                                        .reshape(1, -1)))[0])
        return val, 0.0
    grid = TimeGrid(np.linspace(t, horizon, steps + 1), horizon)
    spec = LinearBsdeSpec(alpha=1.0, driver=driver,
                          terminal=lambda paths: terminal(paths[:, -1, :]))
    payoffs = []
    for total in range(0, samples, _FK_CHUNK):
        batch = simulate(diffusion, x, grid, min(_FK_CHUNK, samples - total),
                         point_seed, sample_offset=total)
        payoffs.append(solve_linear_bsde(spec, batch).y0_samples)
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
    common-random-number comparison.  All widths of one radius are solved
    in one backward pass (`solve_localized_bsdes`), which shares the exit
    times, bases and ridge operators the paths determine.  The diagnostics
    hold the values and standard errors, shape (radii, widths, points), and
    the largest change between successive radii, shape (radii - 1, widths).
    Every argument is checked before any path is simulated.
    """
    _check_elliptic(problem.diffusion)
    if len(eval_points) == 0:
        raise DomainError("need at least one evaluation point")
    for j, (t, x) in enumerate(eval_points):
        if not 0.0 <= float(t) < problem.horizon:
            raise DomainError(f"evaluation point {j} (t={t}, x={x}): time "
                              f"outside [0, horizon {problem.horizon})")
    deltas = list(deltas)
    if not deltas:
        raise DomainError("need at least one mollification width")
    if any(d2 >= d1 for d1, d2 in zip(deltas, deltas[1:])):
        raise DomainError("mollification widths must decrease")
    radii = check_radii(radii, max(np.linalg.norm(x) for _, x in eval_points))
    problems = [replace(problem, driver=mollify_time(problem.driver, delta,
                                                     problem.horizon))
                for delta in deltas]
    values = np.empty((len(radii), len(deltas), len(eval_points)))
    ses = np.empty_like(values)
    for j, (t, x) in enumerate(eval_points):
        grid = TimeGrid(np.linspace(float(t), problem.horizon, steps + 1),
                        problem.horizon)
        batch = simulate(problem.diffusion, x, grid, samples, hash64(seed, j))
        for ri, radius in enumerate(radii):
            solutions = solve_localized_bsdes(problems, radius, batch,
                                              basis_degree=basis_degree,
                                              picard=picard)
            values[ri, :, j] = [sol.y0 for sol in solutions]
            ses[ri, :, j] = [sol.y0_standard_error for sol in solutions]
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
    """Per-point OLS fits of log gap against squared radius."""

    eval_points: list
    radii: np.ndarray
    gaps: np.ndarray
    gap_ses: np.ndarray
    saturated: np.ndarray
    slopes: np.ndarray
    intercepts: np.ndarray
    r_squared: np.ndarray
    reference_values: np.ndarray


def localization_error_experiment(problem: BsdeProblem, radii, batches,
                                  reference_radius: float,
                                  basis_degree: int = 2,
                                  min_detectable_z: float = 0.0
                                  ) -> LocalizationDecayReport:
    """Fit the decay of |u^n(0,x) - u^ref(0,x)| in n^2 on common random
    numbers, per evaluation point, for the problem as given.

    `batches` holds one path batch per evaluation point, whose x is read
    from its first path; all the radii are solved on it.  The radii are
    checked (start 0) before the first batch is read, so a generator of
    batches simulates nothing for a bad sweep.  The whole-space solution is
    operationalized as the run at reference_radius, which must exceed the
    largest radius.  Radii whose gap is exactly zero are saturated (no
    sample distinguishes the balls) and are excluded from the log fit; a
    positive min_detectable_z additionally drops radii whose gap is below
    that multiple of its paired standard error, with a warning.
    """
    radii = check_radii(radii, 0.0)
    if reference_radius <= radii[-1]:
        raise DomainError("reference radius must exceed the largest radius")
    points, ref_values, gaps, gap_ses, saturated = [], [], [], [], []
    slopes, intercepts, r2s = [], [], []
    for batch in batches:
        x = batch.paths[0, 0].copy()  # a view would keep the batch alive
        ref, table = solve_bsde_with_localization(
            problem, np.append(radii, reference_radius), batch,
            basis_degree=basis_degree)
        points.append(x)
        ref_values.append(ref.y0)
        gaps.append([row["gap"] for row in table[:-1]])
        gap_ses.append([row["se"] for row in table[:-1]])
        usable_x, usable_y, sat_row = [], [], []
        for row in table[:-1]:
            radius, gap, se = row["radius"], row["gap"], row["se"]
            if gap == 0.0:
                sat_row.append(True)
                continue
            if min_detectable_z > 0 and gap < min_detectable_z * se:
                warnings.warn(
                    f"radius {radius:g} at x={x.tolist()}: gap {gap:.3e} "
                    f"below {min_detectable_z:g} paired standard errors, "
                    "dropped from the decay fit")
                sat_row.append(True)
                continue
            sat_row.append(False)
            usable_x.append(radius**2)
            usable_y.append(math.log(gap))
        saturated.append(sat_row)
        if len(usable_x) < 2:
            slope = intercept = r2 = float("nan")
        else:
            slope, intercept, r2 = line_fit(usable_x, usable_y)
        slopes.append(slope)
        intercepts.append(intercept)
        r2s.append(r2)

    return LocalizationDecayReport(
        eval_points=points, radii=radii, gaps=np.array(gaps),
        gap_ses=np.array(gap_ses), saturated=np.array(saturated, dtype=bool),
        slopes=np.array(slopes), intercepts=np.array(intercepts),
        r_squared=np.array(r2s), reference_values=np.array(ref_values))
