"""Time grids, sample paths, and the p-variation norm.

The p-variation computed here is the grid version: suprema run over grid
points only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "TimeGrid",
    "SamplePath",
    "p_variation",
    "p_variation_brute_force",
]


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing finite time axis inside [0, horizon]."""

    times: np.ndarray
    horizon: float

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", t)
        if t.ndim != 1 or t.size == 0:
            raise DomainError("time grid must be a nonempty 1-d array")
        if not np.all(np.isfinite(t)):
            raise DomainError("time grid contains non-finite entries")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise DomainError("time grid must be strictly increasing")
        if t[0] < 0 or t[-1] > self.horizon + 1e-12 * max(1.0, self.horizon):
            raise DomainError(
                f"grid range [{t[0]}, {t[-1]}] not inside [0, {self.horizon}]"
            )
        if self.horizon <= 0:
            raise DomainError("horizon must be positive")

    @classmethod
    def uniform(cls, horizon: float, steps: int) -> "TimeGrid":
        if steps < 1:
            raise DomainError("need at least one step")
        return cls(np.linspace(0.0, horizon, steps + 1), horizon)

    def __len__(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class SamplePath:
    """d-dimensional path values on a time grid."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        object.__setattr__(self, "values", v)
        if v.shape[0] != len(self.grid):
            raise DomainError(
                f"{v.shape[0]} values for {len(self.grid)} grid points"
            )
        if not np.all(np.isfinite(v)):
            raise DomainError("path values contain non-finite entries")

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def times(self) -> np.ndarray:
        return self.grid.times


def _increment_norms(values: np.ndarray) -> np.ndarray:
    """Matrix |g_j - g_i| of Euclidean increment sizes, shape (m, m)."""
    diff = values[None, :, :] - values[:, None, :]
    return np.sqrt(np.sum(diff * diff, axis=-1))


def p_variation(path: SamplePath, p: float) -> float:
    """p-variation of a grid path: the maximum of
    sum |g_{a_{k+1}} - g_{a_k}|^p over all increasing index subsequences
    containing both endpoints, by dynamic programming over the end index
    (O(m^2))."""
    if p < 1:
        raise DomainError(f"p-variation needs p >= 1, got {p}")
    values = path.values
    m = values.shape[0]
    if m < 2:
        raise DomainError("p-variation needs at least 2 grid points")
    dist_p = _increment_norms(values) ** p
    best = np.full(m, -np.inf)
    best[0] = 0.0
    for j in range(1, m):
        best[j] = np.max(best[:j] + dist_p[:j, j])
    return float(best[-1] ** (1.0 / p))


def p_variation_brute_force(path: SamplePath, p: float) -> float:
    """Enumerate all sub-partitions (endpoints included).  Exponential in the
    grid size; the independent oracle for the DP, kept usable up to ~12 points.
    """
    if p < 1:
        raise DomainError(f"p-variation needs p >= 1, got {p}")
    values = path.values
    m = values.shape[0]
    if m < 2:
        raise DomainError("p-variation needs at least 2 grid points")
    if m > 16:
        raise DomainError("brute force limited to 16 points")
    dist_p = _increment_norms(values) ** p
    interior = m - 2
    sup = 0.0
    for mask in range(1 << interior):
        idx = [0]
        for b in range(interior):
            if mask >> b & 1:
                idx.append(b + 1)
        idx.append(m - 1)
        total = 0.0
        for a, b in zip(idx[:-1], idx[1:]):
            total += dist_p[a, b]
        if total > sup:
            sup = total
    return float(sup ** (1.0 / p))
