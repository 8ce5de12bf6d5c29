"""The benchmark's three workloads and the checks behind `failed`.

Each workload builds its problem and an independent reference in `setup`
and runs one full solve, plus its correctness check, in `solve`.  The
workload seed reaches the program only as the config or call `seed`; the
reference uses its own seed derived from it.

A check compares the solve with its reference only through values the
program returns or writes, and takes its noise scale from the reference's
own sample standard deviation.  It never reads the program's standard-error
outputs: their zero-SE fallback at a deterministic start is defeated by
roundoff (see NOTES.md).  Every workload counts as one closed-loop client:
one solve at a time, each started after the previous one is checked.
"""

from __future__ import annotations

import csv
import math
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from youngbsde import cli, fd, pde_fk
from youngbsde.bsde import PicardConfig
from youngbsde.diffusion import simulate
from youngbsde.paths import TimeGrid
from youngbsde.registry import diffusion_by_name, driver_by_names
from youngbsde.young_calculus import young_sum_batch

# z-score limit of the statistical checks.  Criterion 11 and the linear
# specialization test use 3 at one pinned seed; the benchmark runs unpinned
# seeds, where 3 fails a correct program 0.27% of the time per seed (one of
# 20 probe seeds of lsmc-sweep gave z = 3.03) and 4 fails it 0.006% of the
# time.
Z_LIMIT = 4.0
REFERENCE_SEED_OFFSET = 1_000_003  # the reference's seed is seed + this


@dataclass
class Outcome:
    values: tuple  # every number the check read, for run-to-run identity
    ok: bool
    detail: str


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _run_cli(config: Path, out: Path, workers: int, tracer) -> None:
    with _maybe_span(tracer, "cli.main"):
        code = cli.main(["run", "--config", str(config), "--out", str(out),
                         "--workers", str(workers)])
    if code != 0:
        raise RuntimeError(f"youngbsde run exited with code {code}")


class FkTable:
    """`pde-fk` on the criterion-09 problem against the Crank-Nicolson
    oracle.  Per-sample RNG, the Euler step and the Young sum carry the
    work; the only workload that goes through `parallel_map`."""

    name = "fk-table"
    samples = 10_000
    steps = 128
    xs = (-1.0, -0.5, 0.5, 1.0)
    rel_tol = 0.05  # criterion 09
    uses_workers = True

    @property
    def work(self) -> int:
        return self.samples * self.steps * len(self.xs)

    def setup(self, seed: int, out: Path, tracer=None) -> dict:
        config = out / f"{self.name}.cfg"
        config.write_text(
            "kind = pde-fk\nterminal = one\ndriver_space = cos\n"
            "driver_time = linear\namplitude = 1.0\ndiffusion = brownian\n"
            "horizon = 1.0\neval_time = 0.0\n"
            f"eval_xs = {', '.join(str(x) for x in self.xs)}\n"
            f"steps = {self.steps}\nsamples = {self.samples}\n"
            f"seed = {seed}\n")
        # u_t + u''/2 + cos(x) u = 0, u(1) = 1: the PDE the FK weight solves
        with _maybe_span(tracer, "fd.crank_nicolson"):
            oracle = fd.crank_nicolson_terminal_value(
                np.ones_like, np.ones_like, np.zeros_like, np.cos, 1.0, 8.0,
                2000, 2000)
        ref = {x: float(oracle.at(0.0, x)[0]) for x in self.xs}
        return {"config": config, "out": out / "run", "ref": ref}

    def solve(self, state: dict, workers: int, tracer=None) -> Outcome:
        _run_cli(state["config"], state["out"], workers, tracer)
        rows = _read_csv(state["out"] / "pde_table.csv")
        got = {float(r["x"]): float(r["u"]) for r in rows}
        errs = {x: abs(got[x] - ref) / abs(ref)
                for x, ref in state["ref"].items()}
        worst = max(errs.values())
        return Outcome(tuple(got[x] for x in self.xs),
                       len(got) == len(self.xs) and worst <= self.rel_tol,
                       f"max relative error vs Crank-Nicolson {worst:.4f} "
                       f"(tol {self.rel_tol})")


class LsmcSweep:
    """`nonlinear-bsde` on the criterion-11 problem: one shared path batch,
    five radii, about two Picard sweeps each.  Checked against direct Monte
    Carlo of X_T + int eta(dt, X_t) on a separate seed."""

    name = "lsmc-sweep"
    samples = 10_000
    steps = 64
    radii = (1.5, 2.0, 2.5, 3.0, 4.0)
    reference_samples = 20_000
    uses_workers = False

    @property
    def work(self) -> int:
        return self.samples * self.steps * len(self.radii)

    def setup(self, seed: int, out: Path, tracer=None) -> dict:
        config = out / f"{self.name}.cfg"
        config.write_text(
            "kind = nonlinear-bsde\ng = one\nterminal = identity\n"
            "driver_space = lorentz\ndriver_time = linear\n"
            f"radii = {', '.join(str(r) for r in self.radii)}\n"
            f"samples = {self.samples}\nsteps = {self.steps}\n"
            f"seed = {seed}\n")
        grid = TimeGrid.uniform(1.0, self.steps)
        driver = driver_by_names("lorentz", "linear")
        fresh = simulate(diffusion_by_name("brownian"), [0.0], grid,
                         self.reference_samples, seed + REFERENCE_SEED_OFFSET)
        direct = (fresh.paths[:, -1, 0]
                  + young_sum_batch(driver, grid.times, fresh.paths)[:, 0])
        return {"config": config, "out": out / "run",
                "mean": float(direct.mean()),
                "std": float(direct.std(ddof=1))}

    def solve(self, state: dict, workers: int, tracer=None) -> Outcome:
        _run_cli(state["config"], state["out"], workers, tracer)
        rows = _read_csv(state["out"] / "localization_decay.csv")
        y0s = [float(r["y0"]) for r in rows]
        gaps = [abs(a - b) for a, b in zip(y0s[:-1], y0s[1:])]
        violations = sum(1 for a, b in zip(gaps[:-1], gaps[1:]) if b > a)
        combined = state["std"] * math.sqrt(1 / self.reference_samples
                                            + 1 / self.samples)
        z = abs(y0s[-1] - state["mean"]) / combined
        ok = (len(y0s) == len(self.radii) and violations <= 1
              and z <= Z_LIMIT)
        return Outcome(tuple(y0s), ok,
                       f"gap-order violations {violations} (<= 1); finest "
                       f"Y0 {z:.2f} combined SE from direct MC "
                       f"(<= {Z_LIMIT:g})")


class DoubleApprox:
    """`solve_young_pde_double_approximation` on the linear specialization
    (g(u) = u): 2 widths x 2 radii, about nine Picard sweeps on a small
    batch, mollified-driver quadrature dominant.  Checked against
    `solve_linear_young_pde` on a separate seed."""

    name = "double-approx"
    samples = 500
    steps = 64
    deltas = (0.04, 0.01)
    radii = (3.0, 6.0)
    amplitude = 0.5
    reference_samples = 20_000
    uses_workers = False

    @property
    def work(self) -> int:
        return self.samples * self.steps * len(self.deltas) * len(self.radii)

    def _problem(self, tracer=None):
        driver = driver_by_names("cos", "linear", amplitude=self.amplitude)
        if tracer is not None:
            driver = tracer.count_base_field(driver)
        return pde_fk.PdeProblem(
            diffusion=diffusion_by_name("brownian"),
            f=lambda t, x, y, z: np.zeros(x.shape[0]),
            g=lambda y: np.asarray(y, dtype=float).reshape(-1, 1),
            terminal=lambda x: np.ones(x.shape[0]), driver=driver,
            horizon=1.0, coefficient_bound=20.0, lipschitz_f=1e-9,
            lipschitz_terminal=1e-9)

    def setup(self, seed: int, out: Path, tracer=None) -> dict:
        plain = self._problem()
        direct = pde_fk.solve_linear_young_pde(
            lambda x: np.ones(x.shape[0]), plain.diffusion, plain.driver,
            [(0.0, [0.0])], horizon=1.0, samples=self.reference_samples,
            seed=seed + REFERENCE_SEED_OFFSET, steps=self.steps)
        return {"seed": seed, "plain": plain,
                "traced": None if tracer is None else self._problem(tracer),
                "mean": float(direct.values[0]),
                "std": float(direct.standard_errors[0])
                * math.sqrt(self.reference_samples)}

    def solve(self, state: dict, workers: int, tracer=None) -> Outcome:
        problem = state["plain"] if tracer is None else state["traced"]
        finest, diag = pde_fk.solve_young_pde_double_approximation(
            problem, deltas=list(self.deltas), radii=list(self.radii),
            eval_points=[(0.0, [0.0])], samples=self.samples,
            seed=state["seed"], steps=self.steps,
            picard=PicardConfig(tolerance=1e-8, max_iterations=80))
        u = float(finest.values[0])
        combined = state["std"] * math.sqrt(1 / self.reference_samples
                                            + 1 / self.samples)
        # the backward scheme compounds (1 + d_eta) where the FK weight is
        # exp(sum d_eta): an O(dt) bias of about u * amp^2 * T / (2 steps)
        scheme_bias = u * self.amplitude**2 / (2 * self.steps)
        err = abs(u - state["mean"])
        ok = err <= Z_LIMIT * combined + scheme_bias
        return Outcome(tuple(np.ravel(diag["values"]).tolist()), ok,
                       f"|u - direct FK| {err:.2e} <= {Z_LIMIT:g} x "
                       f"{combined:.2e} + bias {scheme_bias:.2e}")


WORKLOADS = {w.name: w for w in (FkTable(), LsmcSweep(), DoubleApprox())}


def _maybe_span(tracer, name):
    return nullcontext() if tracer is None else tracer.span(name)
