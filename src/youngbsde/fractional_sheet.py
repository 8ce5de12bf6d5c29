"""Fractional Brownian sheet: exact covariance, dense-Cholesky sampling on
product grids, and the Hurst-parameter admissibility region.

The sheet B(t, x) is a centered Gaussian field whose covariance factors into
one fractional-Brownian-motion covariance per axis (time plus each spatial
coordinate).  Sampling is dense Cholesky at desk scale; no fast synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .drivers import SpaceTimeDriver, make_grid_driver
from .errors import DomainError, NumericalError, ResourceError
from .paths import TimeGrid
from .rng import stream

__all__ = [
    "SheetSpec",
    "covariance_matrix",
    "sample_sheet",
    "hurst_admissible",
    "hurst_region_grid",
    "CHOLESKY_LIMIT",
]

CHOLESKY_LIMIT = 4096
_JITTER_LADDER = (0.0, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8)


@dataclass(frozen=True)
class SheetSpec:
    """Grid and Hurst parameters for one sheet; spatial axes are per-dimension
    sorted coordinate arrays whose product with the time grid is the sampling
    grid."""

    h0: float
    h: np.ndarray
    grid: TimeGrid
    space_axes: list = field(default_factory=list)

    def __post_init__(self):
        h = np.atleast_1d(np.asarray(self.h, dtype=float))
        object.__setattr__(self, "h", h)
        axes = [np.asarray(ax, dtype=float).ravel() for ax in self.space_axes]
        object.__setattr__(self, "space_axes", axes)
        if not 0 < self.h0 < 1 or np.any(h <= 0) or np.any(h >= 1):
            raise DomainError("Hurst parameters must lie strictly in (0, 1)")
        if len(axes) != h.size:
            raise DomainError(
                f"{h.size} spatial Hurst exponents for {len(axes)} axes"
            )
        for ax in axes:
            if ax.size > 1 and not np.all(np.diff(ax) > 0):
                raise DomainError("space axes must be strictly increasing")
        if self.total_points > CHOLESKY_LIMIT:
            raise ResourceError(
                f"grid has {self.total_points} points, above the Cholesky "
                f"limit {CHOLESKY_LIMIT}"
            )

    @property
    def total_points(self) -> int:
        pts = len(self.grid)
        for ax in self.space_axes:
            pts *= ax.size
        return pts


def _fbm_factor(a: np.ndarray, b: np.ndarray, hurst: float) -> np.ndarray:
    """Standard fBm covariance (|a|^2H + |b|^2H - |a-b|^2H) / 2, broadcast."""
    a = np.abs(np.asarray(a, dtype=float))
    b = np.abs(np.asarray(b, dtype=float))
    return 0.5 * (a ** (2 * hurst) + b ** (2 * hurst)
                  - np.abs(a - b) ** (2 * hurst))


def covariance_matrix(spec: SheetSpec) -> np.ndarray:
    """Dense covariance over the product grid, time-major flattening."""
    factors = [_fbm_factor(spec.grid.times[:, None],
                           spec.grid.times[None, :], spec.h0)]
    for ax, hurst in zip(spec.space_axes, spec.h):
        factors.append(_fbm_factor(ax[:, None], ax[None, :], hurst))
    return reduce(np.kron, factors)


def _cholesky_with_jitter(cov: np.ndarray,
                          max_jitter: float | None = None
                          ) -> tuple[np.ndarray, float]:
    ladder = [j for j in _JITTER_LADDER
              if max_jitter is None or j <= max_jitter]
    for jitter in ladder:
        try:
            shifted = cov if jitter == 0.0 else cov + jitter * np.eye(len(cov))
            return np.linalg.cholesky(shifted), jitter
        except np.linalg.LinAlgError:
            continue
    smallest = float(np.min(np.linalg.eigvalsh(cov)))
    raise NumericalError(
        f"Cholesky failed after jitter escalation to {ladder[-1]:g}; "
        f"smallest covariance eigenvalue ~ {smallest:.3e}"
    )


def sample_sheet(spec: SheetSpec, seed: int, jitter: float | None = None
                 ) -> SpaceTimeDriver:
    """Draw one sheet realization and wrap it as a grid-sampled driver.

    The Gaussian vector has the exact grid covariance up to the jitter added
    for factorization.  The driver is normalized to eta(0, x) = 0 by the
    recentring of make_grid_driver, whether or not the time grid starts at
    0.  The declared regularity is a conservative estimate (tau just below
    H0, lam just below min H, beta the leftover spatial roughness budget)
    and is flagged as such.
    """
    cov = covariance_matrix(spec)
    chol, used_jitter = _cholesky_with_jitter(cov, max_jitter=jitter)
    gauss = stream(seed).standard_normal(cov.shape[0])
    values = (chol @ gauss).reshape(
        len(spec.grid), *(ax.size for ax in spec.space_axes))

    hmin = float(np.min(spec.h))
    tau = max(spec.h0 - 0.01, 1e-3)
    lam = max(min(hmin - 0.01, 1.0), 1e-3)
    beta = max(float(np.sum(spec.h)) - lam, 0.0)
    driver = make_grid_driver(spec.grid.times, spec.space_axes, values,
                              tau=tau, lam=lam, beta=beta)
    driver.payload["jitter"] = used_jitter
    return driver


def sample_sheet_batch(spec: SheetSpec, seed: int, n_samples: int,
                       jitter: float | None = None
                       ) -> tuple[np.ndarray, float]:
    """Draw many sheet realizations at once for statistical checks.

    Returns (values of shape (n_samples, total grid points, time-major),
    jitter actually used).  One stream drives the whole batch; replays are
    bit-identical.
    """
    if n_samples < 1:
        raise DomainError("need at least one sample")
    cov = covariance_matrix(spec)
    chol, used_jitter = _cholesky_with_jitter(cov, max_jitter=jitter)
    gauss = stream(seed).standard_normal((cov.shape[0], n_samples))
    return (chol @ gauss).T, used_jitter


def hurst_admissible(h0: float, h: float, d: int) -> bool:
    """Whether (H0, H) admit the pathwise solution theory in dimension d:
    H0 + H/2 > 1 and d*H < 2*H0 - 1, both strict."""
    if not 0 < h0 < 1 or not 0 < h < 1:
        raise DomainError("Hurst parameters must lie strictly in (0, 1)")
    if d < 1:
        raise DomainError("dimension must be a positive integer")
    return bool(h0 + h / 2.0 > 1.0 and d * h < 2.0 * h0 - 1.0)


def hurst_region_grid(d: int, resolution: int) -> np.ndarray:
    """Structured table (H, H0, admissible) over interior grid points of
    (0,1)^2; admissible is 0/1.  Suitable for direct CSV emission."""
    if resolution < 2:
        raise DomainError("resolution must be at least 2")
    pts = np.arange(1, resolution + 1) / (resolution + 1.0)
    rows = np.empty(resolution * resolution,
                    dtype=[("h", float), ("h0", float), ("admissible", int)])
    k = 0
    for h in pts:
        for h0 in pts:
            rows[k] = (h, h0, int(hurst_admissible(h0, h, d)))
            k += 1
    return rows
