"""Experiment implementations behind the CLI: one handler per config kind.

Handlers validate their inputs, compute fully in memory, then emit CSVs in a
deterministic order; parallelism only ever spans independent jobs keyed by
their own seeds, so worker counts never change any output byte.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bsde import (BsdeProblem, PicardConfig, check_t_index,
                   martingale_residual, solve_bsde_with_localization,
                   tower_rule_defect)
from .config import ExperimentConfig
from .csvio import write_csv
from .diffusion import check_radii, exit_tail_decay, simulate
from .drivers import save_sampled_driver, zero_driver
from .errors import ConfigError
from .fractional_sheet import SheetSpec, hurst_region_grid, sample_sheet
from .paths import SamplePath, TimeGrid
from .pde_fk import (LinearBsdeSpec, PdeProblem, check_reaction_growth,
                     fk_point_estimate, localization_error_experiment,
                     solve_linear_bsde)
from .registry import (diffusion_by_name, driver_by_names, drift_change_function,
                       path_function, space_function, terminal_function,
                       y_coefficient_function)
from .rng import hash64
from .young_calculus import (flow_inverse, flow_product_defect,
                             nonlinear_young_integral, solve_flow)

__all__ = ["run_experiment", "RunResult", "parallel_map"]


@dataclass
class RunResult:
    files: list = field(default_factory=list)
    converged: bool = True


def parallel_map(fn, items, workers) -> list:
    """Order-preserving map over independent jobs; thread pool when asked."""
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _batch(v: dict):
    """The forward batch of a kind's batch keys, simulated from x0."""
    grid = TimeGrid.uniform(v["horizon"], v["steps"])
    return simulate(diffusion_by_name(v["diffusion"]), [v["x0"]], grid,
                    v["samples"], v["seed"])


def _driver(v: dict):
    return driver_by_names(v["driver_space"], v["driver_time"],
                           amplitude=v["amplitude"])


# -- handlers ----------------------------------------------------------------

def _run_simulate_fbs(v: dict, out: Path) -> RunResult:
    times = np.linspace(0.0, v["horizon"], v["time_points"])
    axes = [np.linspace(v["space_min"], v["space_max"], v["space_points"])
            for _ in range(v["sdim"])]
    spec = SheetSpec(v["h0"], [v["h"]] * v["sdim"],
                     TimeGrid(times, v["horizon"]), axes)
    jitter = None if v["jitter"] < 0 else v["jitter"]
    driver = sample_sheet(spec, seed=v["seed"], jitter=jitter)
    path = out / "sheet.csv"
    save_sampled_driver(driver, path)
    meta = write_csv(out / "sheet_meta.csv",
                     ["h0", "h", "sdim", "jitter_used", "tau", "lam", "beta"],
                     [[v["h0"], v["h"], v["sdim"],
                       driver.payload["jitter"], driver.tau, driver.lam,
                       driver.beta]])
    return RunResult(files=[path, meta])


def _run_young_integral(v: dict, out: Path) -> RunResult:
    grid = TimeGrid(np.linspace(v["lower"], v["upper"], v["steps"] + 1),
                    v["horizon"])
    y = SamplePath(grid, path_function(v["integrand"])(grid.times))
    x = SamplePath(grid, path_function(v["space_path"])(grid.times))
    result = nonlinear_young_integral(y, x, _driver(v), tol_abs=v["tol_abs"],
                                      tol_rel=v["tol_rel"],
                                      max_levels=v["max_levels"])
    rows = [[ch, result.value[ch], result.levels, result.cauchy_gap,
             result.converged] for ch in range(result.value.size)]
    path = write_csv(out / "integral.csv",
                     ["channel", "value", "levels", "cauchy_gap", "converged"],
                     rows)
    return RunResult(files=[path], converged=result.converged)


def _flow_alpha(kind: str, times: np.ndarray, n_dim: int) -> np.ndarray:
    m = times.size
    if n_dim == 1:
        if kind != "ones":
            raise ConfigError("n_dim=1 supports alpha_kind=ones")
        return np.ones((m, 1, 1, 1))
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    if kind == "constant-rotation":
        return np.broadcast_to(rot, (m, 1, 2, 2)).copy()
    if kind == "rotation-scaled":
        scale = 1.0 + 0.5 * times
        return scale[:, None, None, None] * rot[None, None, :, :]
    raise ConfigError(f"unknown alpha_kind {kind!r} for n_dim=2")


def _run_flow(v: dict, out: Path) -> RunResult:
    grid = TimeGrid.uniform(v["horizon"], v["steps"])
    x = SamplePath(grid, path_function(v["x_path"])(grid.times))
    driver = driver_by_names(v["driver_space"], v["driver_time"])
    alpha = _flow_alpha(v["alpha_kind"], grid.times, v["n_dim"])
    flow = solve_flow(alpha, driver, x, base_time=v["base_time"],
                      mode=v["mode"], richardson=v["richardson"])
    split_time = grid.times[int(round(v["product_split"]
                                      * (grid.times.size - 1)))]
    flow_mid = solve_flow(alpha, driver, x, base_time=split_time,
                          mode=v["mode"])
    defect = flow_product_defect(flow, flow_mid)
    inverse = flow_inverse(flow)
    inv_residual = float(np.max(np.abs(
        np.einsum("kij,kjl->kil", inverse.matrices, flow.matrices)
        - np.eye(flow.dim))))
    n = flow.dim
    header = ["time"] + [f"g{i + 1}{j + 1}" for i in range(n)
                         for j in range(n)]
    rows = [[t, *mat.ravel()] for t, mat in zip(flow.times, flow.matrices)]
    f1 = write_csv(out / "flow.csv", header, rows)
    f2 = write_csv(out / "flow_diagnostics.csv",
                   ["product_defect", "inverse_identity_residual",
                    "richardson_error", "mode", "split_time"],
                   [[defect, inv_residual,
                     flow.error_estimate if flow.error_estimate is not None
                     else float("nan"), flow.mode, split_time]])
    return RunResult(files=[f1, f2])


def _run_linear_bsde(v: dict, out: Path) -> RunResult:
    terminal = terminal_function(v["terminal"])
    spec = LinearBsdeSpec(
        alpha=0.0 if v["alpha"] == "zero" else 1.0,
        terminal=lambda paths: terminal(paths[:, -1, :]), driver=_driver(v),
        drift_change=drift_change_function(v["drift_change"],
                                           v["drift_change_amplitude"]))
    sol = solve_linear_bsde(spec, _batch(v))
    path = write_csv(out / "linear_solution.csv",
                     ["time", "y0", "standard_error", "samples"],
                     [[0.0, sol.y0, sol.y0_standard_error, v["samples"]]])
    return RunResult(files=[path])


def _run_nonlinear_bsde(v: dict, out: Path) -> RunResult:
    rate = v["reaction_rate"]
    problem = BsdeProblem(
        f=lambda t, x, y, z: rate * y, g=y_coefficient_function(v["g"]),
        terminal=terminal_function(v["terminal"]), driver=_driver(v),
        coefficient_bound=1.0, lipschitz_f=max(abs(rate), 1e-9))
    picard = PicardConfig(tolerance=v["picard_tol"],
                          max_iterations=v["picard_max"])
    check_radii(v["radii"], abs(v["x0"]))
    batch = _batch(v)
    finest, table = solve_bsde_with_localization(
        problem, v["radii"], batch, basis_degree=v["basis_degree"],
        picard=picard)
    f1 = write_csv(out / "localization_decay.csv",
                   ["radius", "y0", "gap_to_finest", "standard_error",
                    "exit_probability", "max_abs_y"],
                   [[row["radius"], row["y0"], row["gap"], row["se"],
                     row["exit_probability"], row["max_abs_y"]]
                    for row in table])
    nb = len(finest.y_coefficients[0]) if finest.y_coefficients[0] is not None \
        else 0
    header = (["time"] + [f"y_c{i}" for i in range(nb)]
              + [f"z_c{i}" for i in range(nb)]
              + ["residual_mean", "residual_se"])
    rows = []
    res = martingale_residual(problem, finest, batch,
                              basis_degree=v["basis_degree"])
    for i, t in enumerate(batch.grid.times[:-1]):
        yc = finest.y_coefficients[i]
        zc = finest.z_coefficients[i]
        rows.append([t,
                     *(yc if yc is not None else [float("nan")] * nb),
                     *(zc[:, 0] if zc is not None else [float("nan")] * nb),
                     res["mean"][i], res["se"][i]])
    f2 = write_csv(out / "solution_coefficients.csv", header, rows)
    return RunResult(files=[f1, f2], converged=finest.converged)


def _run_pde_fk(v: dict, out: Path) -> RunResult:
    diffusion = diffusion_by_name(v["diffusion"])
    driver = _driver(v)
    terminal = terminal_function(v["terminal"])
    t, xs = v["eval_time"], v["eval_xs"]

    def job(j):
        return fk_point_estimate(diffusion, driver, terminal, t, [xs[j]],
                                 v["horizon"], v["steps"], v["samples"],
                                 hash64(v["seed"], j))

    results = parallel_map(job, list(range(len(xs))), v["workers"])
    rows = [[t, x, u, se, v["samples"]] for x, (u, se) in zip(xs, results)]
    path = write_csv(out / "pde_table.csv",
                     ["time", "x", "u", "standard_error", "samples"], rows)
    return RunResult(files=[path])


def _run_localization_error(v: dict, out: Path) -> RunResult:
    diffusion = diffusion_by_name(v["diffusion"])
    if v["reaction_kind"] == "zero":
        f = lambda t, x, y, z: np.zeros(x.shape[0])
    else:
        vx = space_function(v["reaction_space"])
        gy = y_coefficient_function(v["reaction_g"])
        f = lambda t, x, y, z: vx(x) * gy(y)[:, 0]
    check_reaction_growth(f, diffusion.dim, v["theta1"], v["theta2"],
                          v["theta3"])
    problem = PdeProblem(
        f=f, g=y_coefficient_function("zero"),
        terminal=terminal_function(v["terminal"]),
        driver=zero_driver(diffusion.dim), lipschitz_f=math.inf,
        diffusion=diffusion, horizon=v["horizon"])
    check_radii(v["radii"], max(abs(x) for x in v["eval_xs"]))
    batches = (_batch({**v, "x0": x, "seed": hash64(v["seed"], j)})
               for j, x in enumerate(v["eval_xs"]))
    report = localization_error_experiment(
        problem, v["radii"], batches, v["reference_radius"],
        min_detectable_z=v["min_detectable_z"])
    fit_rows = [[pt[0], report.slopes[j], report.intercepts[j],
                 report.r_squared[j], report.reference_values[j]]
                for j, pt in enumerate(report.eval_points)]
    f1 = write_csv(out / "decay_fits.csv",
                   ["x", "slope", "intercept", "r_squared",
                    "reference_value"], fit_rows)
    gap_rows = [[pt[0], r, report.gaps[j, k], report.gap_ses[j, k],
                 bool(report.saturated[j, k])]
                for j, pt in enumerate(report.eval_points)
                for k, r in enumerate(report.radii)]
    f2 = write_csv(out / "decay_gaps.csv",
                   ["x", "radius", "gap", "standard_error", "saturated"],
                   gap_rows)
    return RunResult(files=[f1, f2])


def _run_hurst_region(v: dict, out: Path) -> RunResult:
    table = hurst_region_grid(v["d"], v["resolution"])
    path = write_csv(out / "hurst_region.csv", ["H", "H0", "admissible"],
                     [[row["h"], row["h0"], row["admissible"]]
                      for row in table])
    return RunResult(files=[path])


def _run_tower_rule(v: dict, out: Path) -> RunResult:
    driver = driver_by_names(v["driver_space"], v["driver_time"])
    check_t_index(v["t_index"], v["steps"] + 1)
    batch = _batch(v)
    m = batch.grid.times.size
    a_terminal = batch.paths[:, -1, 0]
    if v["a_process"] == "terminal-square":
        a_terminal = a_terminal**2
    a_vals = np.tile(a_terminal[:, None], (1, m))
    b_vals = np.ones((v["samples"], m)) \
        if v["b_process"] == "one" else batch.paths[:, :, 0]
    est1, est2, se = tower_rule_defect(a_vals, b_vals, driver, batch,
                                       t_index=v["t_index"],
                                       basis_degree=v["basis_degree"])
    z = abs(est1 - est2) / se if se > 0 else 0.0
    path = write_csv(out / "tower.csv",
                     ["estimator_raw", "estimator_conditioned",
                      "combined_standard_error", "z_score"],
                     [[est1, est2, se, z]])
    return RunResult(files=[path])


def _run_exit_decay(v: dict, out: Path) -> RunResult:
    check_radii(v["radii"], abs(v["x0"]))
    fit = exit_tail_decay(_batch(v), v["radii"])
    f1 = write_csv(out / "exit_probabilities.csv",
                   ["radius", "probability", "standard_error"],
                   [[r, p, s] for r, p, s in
                    zip(fit.radii, fit.probabilities, fit.standard_errors)])
    f2 = write_csv(out / "exit_decay_fit.csv",
                   ["slope", "intercept", "r_squared", "radii_used",
                    "radii_dropped"],
                   [[fit.slope, fit.intercept, fit.r_squared,
                     len(fit.radii), len(fit.dropped)]])
    return RunResult(files=[f1, f2])


_HANDLERS = {
    "simulate-fbs": _run_simulate_fbs,
    "young-integral": _run_young_integral,
    "flow": _run_flow,
    "linear-bsde": _run_linear_bsde,
    "nonlinear-bsde": _run_nonlinear_bsde,
    "pde-fk": _run_pde_fk,
    "localization-error": _run_localization_error,
    "hurst-region": _run_hurst_region,
    "tower-rule": _run_tower_rule,
    "exit-decay": _run_exit_decay,
}


def run_experiment(config: ExperimentConfig, out_dir) -> RunResult:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return _HANDLERS[config.kind](config.values, out)
