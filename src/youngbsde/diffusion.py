"""Forward diffusion simulation, first-exit detection, and the exit-tail
decay experiment.

Coefficients are constant arrays or vectorized callables with a declared
uniform bound L; constants are checked once, when their spec is built, and
callables at every Euler step, on every visited state.  Exits are detected at
grid points only (the continuous overshoot bias shrinks with the step size
and is not bridge-corrected).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .paths import TimeGrid
from .regression import line_fit
from .rng import hash64
from .young_calculus import step_increments

__all__ = [
    "DiffusionSpec",
    "PathBatch",
    "ExitReport",
    "ExitDecayFit",
    "simulate",
    "first_exit",
    "check_radii",
    "exit_tail_decay",
]


@dataclass(frozen=True, eq=False)  # array fields: compare and hash by identity
class DiffusionSpec:
    """Bounded Lipschitz coefficients (sigma, b) with uniform bound L.

    Each is a constant array, sigma (d, d) and b (d,), kept as a read-only
    copy, or a vectorized callable: sigma maps (t, x:(S,d)) -> (S,d,d) and b
    maps (t, x:(S,d)) -> (S,d), scalar shorthands ((S,) outputs for d == 1)
    accepted.  ellipticity=0 means "not asserted".  The bound and a positive
    ellipticity are checked here when both are constant, else by `simulate`;
    a NaN constant, or a NaN coefficient value, fails its check.
    """

    sigma: object
    drift: object
    bound: float
    dim: int
    ellipticity: float = 0.0

    def __post_init__(self):
        if not self.bound > 0 or self.dim < 1:
            raise DomainError("bound and dim must be positive")
        if not self.ellipticity >= 0:
            raise DomainError("ellipticity must be >= 0")
        for name, shape in (("sigma", (self.dim, self.dim)),
                            ("drift", (self.dim,))):
            value = getattr(self, name)
            if not callable(value):
                value = np.array(value, dtype=float)
                if value.shape != shape:
                    raise DomainError(f"constant {name} must have shape "
                                      f"{shape}; got {value.shape}")
                value.flags.writeable = False
                object.__setattr__(self, name, value)
        if self.constant:
            self.check_bounds(0.0, self.sigma[None], self.drift[None])

    @property
    def constant(self) -> bool:
        """Whether sigma and b are both constant arrays."""
        return not (callable(self.sigma) or callable(self.drift))

    def sigma_at(self, t: float, x: np.ndarray) -> np.ndarray:
        shape = (x.shape[0], self.dim, self.dim)
        if callable(self.sigma):
            return np.asarray(self.sigma(t, x), dtype=float).reshape(shape)
        return np.broadcast_to(self.sigma, shape)

    def drift_at(self, t: float, x: np.ndarray) -> np.ndarray:
        shape = (x.shape[0], self.dim)
        if callable(self.drift):
            return np.asarray(self.drift(t, x), dtype=float).reshape(shape)
        return np.broadcast_to(self.drift, shape)

    def check_bounds(self, t: float, sig: np.ndarray, dri: np.ndarray) -> None:
        worst_sigma = float(np.max(np.sqrt(np.sum(sig * sig, axis=(1, 2)))))
        worst_drift = float(np.max(np.linalg.norm(dri, axis=1)))
        if not (worst_sigma <= self.bound * (1 + 1e-12)
                and worst_drift <= self.bound * (1 + 1e-12)):
            raise DomainError(
                f"coefficient bound violated at t={t:g}: |sigma|="
                f"{worst_sigma:g}, |b|={worst_drift:g} exceed the declared "
                f"uniform bound L={self.bound:g}")
        if self.ellipticity > 0:
            if self.dim == 1:  # sigma*sigma^T is its own eigenvalue
                smallest = float(np.min(sig[:, 0, 0] * sig[:, 0, 0]))
            else:
                gram = np.einsum("sij,skj->sik", sig, sig)
                smallest = float(np.min(np.linalg.eigvalsh(gram)))
            if not smallest >= self.ellipticity * (1 - 1e-9):
                raise DomainError(
                    f"ellipticity violated at t={t:g}: smallest sigma*sigma^T "
                    f"eigenvalue {smallest:g} < declared {self.ellipticity:g}")


@dataclass(frozen=True)
class PathBatch:
    """S simulated paths (S, m, d) with their Brownian increments
    (S, m - 1, d); fully reproducible from (spec, grid, seed) and stable
    under enlarging S.

    `simulate` stores both step-major, read-only, and holds transposed
    views, so `paths[:, i]` is a contiguous row.  Consumers must not depend
    on the layout: any array of these shapes gives the same results.

    `driver_increments` keeps the increments of every driver it was asked
    for, with the driver object itself, for the batch's lifetime: every
    solve of a sweep, and every width of the double approximation, reads
    its driver's one array.  A copy made with `dataclasses.replace` starts
    with nothing kept.
    """

    grid: TimeGrid
    paths: np.ndarray
    increments: np.ndarray
    _kept: list = field(default_factory=list, init=False, repr=False,
                        compare=False)

    @property
    def samples(self) -> int:
        return self.paths.shape[0]

    @property
    def dim(self) -> int:
        return self.paths.shape[2]

    def driver_increments(self, driver) -> np.ndarray:
        """Left-point increments eta(t_{i+1}, X_i) - eta(t_i, X_i) of the
        driver along the batch, step-major and read-only: shape (m - 1, S, M),
        (0, S, M) on a one-point grid, row i being step i of
        `young_calculus.step_increments`.  Computed once per driver and kept
        with it, matched by identity (an equal copy is a new driver)."""
        for kept, deta in self._kept:
            if kept is driver:
                return deta
        times = self.grid.times
        deta = np.empty((times.size - 1, self.samples, driver.channels))
        for i, step in enumerate(step_increments(driver, times, self.paths)):
            deta[i] = step
        deta.flags.writeable = False
        self._kept.append((driver, deta))
        return deta


@dataclass(frozen=True)
class ExitReport:
    """Per-sample first-exit data for one radius: the grid index at which
    each sample stops (its first exit, else the last index) and the
    fraction stopped before the horizon."""

    stop_index: np.ndarray
    probability: float
    standard_error: float


@dataclass(frozen=True)
class ExitDecayFit:
    """OLS fit of log exit probability against squared excess radius."""

    slope: float
    intercept: float
    r_squared: float
    radii: np.ndarray
    probabilities: np.ndarray
    standard_errors: np.ndarray
    dropped: list


_BLOCK = 1024  # samples per counter-based stream


def _normal_increments(seed: int, samples: int, steps: int, dim: int,
                       dts: np.ndarray, offset: int) -> np.ndarray:
    """Brownian increments, one counter-based stream per block of samples,
    stored step-major: shape (steps, samples, dim), C-contiguous.

    Sample i (global index offset + i) is row (offset + i) mod _BLOCK of
    block (offset + i) // _BLOCK, whose draws are
    `rng.stream(seed, block).standard_normal((_BLOCK, steps, dim))` in C
    order.  A shorter draw is a prefix of that array, so each covering block
    is drawn only up to the last row the batch needs, then sliced and copied,
    transposed, into its columns of the step-major array.
    """
    end = offset + samples
    blocks = np.arange(offset // _BLOCK, (end - 1) // _BLOCK + 1)
    out = np.empty((steps, samples, dim))
    for block, key in zip(blocks.tolist(), hash64(seed, blocks)):
        start = block * _BLOCK
        lo, hi = max(start, offset), min(start + _BLOCK, end)
        gen = np.random.Generator(np.random.Philox(key=int(key)))
        draws = gen.standard_normal((hi - start, steps, dim))[lo - start:]
        out[:, lo - offset:hi - offset] = draws.swapaxes(0, 1)
    out *= np.sqrt(dts)[:, None, None]
    return out


def simulate(spec: DiffusionSpec, x0, grid: TimeGrid, samples: int,
             seed: int, sample_offset: int = 0) -> PathBatch:
    """Euler scheme X_{i+1} = X_i + b dt + sigma dW over the grid.

    Deterministic in (spec, grid, samples, seed); sample i depends only on
    (seed, sample_offset + i) through its row of a 1024-sample stream
    block, so chunked generation with a running offset reproduces one big
    batch.  The paths and increments are stored step-major, so each step
    is one contiguous (samples, dim) row; the batch holds (samples, m, dim)
    and (samples, m - 1, dim) read-only views of them.  Callable
    coefficients are checked at each step: DomainError if a visited state
    breaks the declared bound or ellipticity (constants: see DiffusionSpec),
    and before any draw if x0 is not finite.
    """
    if samples < 1:
        raise DomainError("need at least one sample")
    x0 = np.asarray(x0, dtype=float).reshape(spec.dim)
    if not np.all(np.isfinite(x0)):
        raise DomainError(f"start point {x0.tolist()} is not finite")
    times = grid.times
    steps = times.size - 1
    dts = np.diff(times)
    dw = _normal_increments(seed, samples, steps, spec.dim, dts,
                            sample_offset)
    paths = np.empty((steps + 1, samples, spec.dim))
    paths[0] = x0
    constant = spec.constant
    sig, dri = spec.sigma, spec.drift
    product = "ij,sj->si" if constant else "sij,sj->si"
    for i in range(steps):
        if not constant:
            sig = spec.sigma_at(times[i], paths[i])
            dri = spec.drift_at(times[i], paths[i])
            spec.check_bounds(times[i], sig, dri)
        paths[i + 1] = (paths[i] + dri * dts[i]
                        + np.einsum(product, sig, dw[i]))
    paths.flags.writeable = dw.flags.writeable = False
    return PathBatch(grid=grid, paths=paths.swapaxes(0, 1),
                     increments=dw.swapaxes(0, 1))


def _exit_report(norms: np.ndarray, radius: float) -> ExitReport:
    """The stop rule of `first_exit` on the (S, m) state norms of a batch."""
    if radius <= 0:
        raise DomainError("exit radius must be positive")
    stopped = norms > radius
    stopped[:, -1] = True  # every sample stops at the horizon at the latest
    stop = stopped.argmax(axis=1)
    p = float(np.mean(stop < stopped.shape[1] - 1))
    se = math.sqrt(max(p * (1 - p), 0.0) / norms.shape[0])
    return ExitReport(stop_index=stop, probability=p, standard_error=se)


def first_exit(batch: PathBatch, radius: float) -> ExitReport:
    """First grid index with |X| > radius per sample, else the last index;
    the probability is the fraction of samples stopped before the
    horizon."""
    return _exit_report(np.linalg.norm(batch.paths, axis=2), radius)


def check_radii(radii, start_norm: float) -> np.ndarray:
    """The radii as given, after the one localization-radius rule: at least
    one, strictly increasing as given, the smallest above start_norm (every
    start point in the open ball).  Callers check before they simulate."""
    radii = np.array(radii, dtype=float).reshape(-1)
    if radii.size == 0 or not np.all(np.diff(radii) > 0):
        raise DomainError(
            f"radii must be strictly increasing; got {radii.tolist()}")
    if not radii[0] > start_norm:
        raise DomainError(f"localization radius must exceed |x0| = "
                          f"{start_norm:g}; got {radii.tolist()}")
    return radii


def exit_tail_decay(batch: PathBatch, radii) -> ExitDecayFit:
    """Regress log P(exit before the horizon) on (radius - |x0|)^2 over the
    given batch, whose paths all start at x0 (|x0| is read from its first
    path).  The state norms are taken once for all radii.

    The radii must pass `check_radii`; radii with no observed exits are
    dropped with a warning.  At least 3 usable radii are required for the fit.
    """
    x0_norm = float(np.linalg.norm(batch.paths[0, 0]))
    radii = check_radii(radii, x0_norm)
    norms = np.linalg.norm(batch.paths, axis=2)
    reports = [_exit_report(norms, r) for r in radii]
    probs = np.array([report.probability for report in reports])
    ses = np.array([report.standard_error for report in reports])
    seen = probs > 0.0
    dropped = radii[~seen].tolist()
    for r in dropped:
        warnings.warn(f"radius {r:g}: no exits observed, dropped from fit")
    if seen.sum() < 3:
        raise DomainError(
            f"only {seen.sum()} radii with nonzero exit probability; "
            "need at least 3 (degenerate input)")
    slope, intercept, r2 = line_fit((radii[seen] - x0_norm) ** 2,
                                    np.log(probs[seen]))
    return ExitDecayFit(slope=slope, intercept=intercept, r_squared=r2,
                        radii=radii[seen], probabilities=probs[seen],
                        standard_errors=ses[seen], dropped=dropped)
