"""Space-time drivers eta(t, x): evaluation, time-mollification, analytic
families, grid interpolation, weighted-seminorm estimation, CSV round trip.

Conventions
-----------
* A driver's raw field fn(t, x) is batched: t of shape (K,) and x of shape
  (K, d) give (K,) or (K, M) (the channel axis may be omitted when M == 1).
* Every driver is normalized so eta(0, x) = 0: at_pairs, the one value
  evaluation, returns fn(t, x) - fn(0, x) whatever the raw field does at
  t = 0.  Time increments eta(t1,x) - eta(t0,x) do not see the recentring,
  so increment_pairs evaluates the raw field at the two endpoints only (a
  scalar time reaches it broadcast to (K,)).
* A separable driver v(x) * (a(t) - a(0)) keeps its factors: its increments
  evaluate v once per point and a once per time; only a is mollified.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .rng import stream

__all__ = [
    "SpaceTimeDriver",
    "SeminormEstimate",
    "make_separable_driver",
    "make_grid_driver",
    "zero_driver",
    "mollify_time",
    "estimate_seminorm",
    "save_sampled_driver",
    "load_sampled_driver",
    "bump_kernel",
    "MOLLIFIER_QUADRATURE_POINTS",
]

MOLLIFIER_QUADRATURE_POINTS = 129
# most quotient pairs of each family estimate_seminorm evaluates; larger
# families are uniformly subsampled
_PAIR_BUDGET = 1_000_000


def _as_channels(out: np.ndarray, k: int, channels: int) -> np.ndarray:
    """Coerce a raw evaluation result to (K, M)."""
    out = np.asarray(out, dtype=float)
    if out.ndim == 1:
        out = out[:, None]
    if out.shape != (k, channels):
        raise DomainError(
            f"driver returned shape {out.shape}, expected ({k}, {channels})"
        )
    return out


@dataclass
class SpaceTimeDriver:
    """Evaluable field eta(t, x) with declared regularity metadata.

    fn is the raw field in the batched form of the module conventions.
    tau, lam are the time/space Hoelder exponents and beta the polynomial
    spatial weight the caller declares for the field; they are metadata used
    by the calculus layer, never re-derived from samples.
    """

    fn: callable
    dim: int
    channels: int = 1
    tau: float = 1.0
    lam: float = 1.0
    beta: float = 0.0
    payload: dict = field(default_factory=dict, repr=False)
    # (v, a, a(0)) of a separable field v(x) * (a(t) - a(0)), else None;
    # set by make_separable_driver
    _factors: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        if not 0 < self.tau <= 1 or not 0 < self.lam <= 1 or self.beta < 0:
            raise DomainError(
                f"declared regularity out of range: tau={self.tau}, "
                f"lam={self.lam}, beta={self.beta}"
            )

    # -- evaluation ------------------------------------------------------

    def at_pairs(self, t: np.ndarray, x: np.ndarray) -> np.ndarray:
        """eta(t_k, x_k) = fn(t_k, x_k) - fn(0, x_k) for paired arrays,
        shape (K, M)."""
        t = np.asarray(t, dtype=float).ravel()
        x = np.asarray(x, dtype=float).reshape(t.size, self.dim)
        val = _as_channels(self.fn(t, x), t.size, self.channels)
        base = _as_channels(self.fn(np.zeros_like(t), x), t.size, self.channels)
        return val - base

    def increment_pairs(self, t0: float | np.ndarray, t1: float | np.ndarray,
                        x: np.ndarray) -> np.ndarray:
        """eta(t1_k, x_k) - eta(t0_k, x_k) for the K rows of x, times paired
        to the rows (K,) or scalars; recentring cancels, so this hits the
        raw field once per endpoint, or a separable field's space factor
        once per point and its time factor once, on the times t1 then t0
        (it must act element by element)."""
        t0 = np.asarray(t0, dtype=float).ravel()
        t1 = np.asarray(t1, dtype=float).ravel()
        x = np.asarray(x, dtype=float).reshape(-1, self.dim)
        k = x.shape[0]
        if self._factors is not None:
            v, a, a0 = self._factors
            vx = _space_factor(v, x)
            # one call for both endpoints: time factors act per element
            at = np.asarray(a(np.concatenate([t1, t0])), dtype=float) - a0
            hi = vx * at[:t1.size, None]
            lo = vx * at[t1.size:, None]
            return _as_channels(hi - lo, k, self.channels)
        t0, t1 = np.broadcast_to(t0, k), np.broadcast_to(t1, k)
        hi = _as_channels(self.fn(t1, x), k, self.channels)
        lo = _as_channels(self.fn(t0, x), k, self.channels)
        return hi - lo


def _space_factor(v, x: np.ndarray) -> np.ndarray:
    vx = np.asarray(v(x), dtype=float)
    return vx[:, None] if vx.ndim == 1 else vx


def make_separable_driver(v, a, dim: int = 1, channels: int = 1,
                          tau: float = 1.0, lam: float = 1.0,
                          beta: float = 0.0) -> SpaceTimeDriver:
    """Driver eta(t, x) = v(x) * (a(t) - a(0)).

    v must be numpy-vectorized: (K, d) -> (K,) or (K, M); a likewise maps
    (K,) -> (K,), element by element.
    """
    a0 = float(np.asarray(a(np.zeros(1)))[0])

    def fn(t, x):
        return (_space_factor(v, x)
                * (np.asarray(a(t), dtype=float) - a0)[:, None])

    return SpaceTimeDriver(fn=fn, dim=dim, channels=channels, tau=tau,
                           lam=lam, beta=beta, _factors=(v, a, a0))


def zero_driver(dim: int = 1, channels: int = 1) -> SpaceTimeDriver:
    return make_separable_driver(
        lambda x: np.zeros((x.shape[0], channels)), np.zeros_like, dim=dim,
        channels=channels)


# -- mollification --------------------------------------------------------

def bump_kernel(u: np.ndarray) -> np.ndarray:
    """Smooth compactly supported kernel exp(-1/(1-u^2)) on (-1, 1), not yet
    normalized to unit mass."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1
    out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out


def _simpson_weights(n: int) -> np.ndarray:
    if n < 3 or n % 2 == 0:
        raise DomainError("Simpson quadrature needs an odd node count >= 3")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


def _reflect_into(times: np.ndarray, horizon: float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Extension of the time axis beyond [0, horizon]: odd reflection at 0
    (preserves eta(0, .) = 0, so a field linear in time is reproduced
    exactly), even reflection at the horizon.  Returns (folded times, sign).
    Valid for excursions below one horizon on each side, which the
    mollification width bound guarantees."""
    sign = np.where(times < 0, -1.0, 1.0)
    folded = np.abs(times)
    over = folded > horizon
    folded = np.where(over, 2.0 * horizon - folded, folded)
    return folded, sign


def mollify_time(driver: SpaceTimeDriver, delta: float, horizon: float,
                 quadrature_points: int = MOLLIFIER_QUADRATURE_POINTS
                 ) -> SpaceTimeDriver:
    """Convolve the driver in time with a bump kernel of width delta.

    The base field is extended beyond [0, horizon] by reflection (odd at 0,
    even at the horizon); the discrete kernel weights are renormalized to
    unit mass, so a field linear in time is reproduced exactly on
    [0, horizon - delta].  The result is recentred so that
    eta_delta(0, x) = 0.  A separable driver stays separable: only its time
    factor is convolved, all nodes at once, once per time it is given.
    """
    if delta <= 0:
        raise DomainError("mollification width must be positive")
    if delta >= horizon:
        raise DomainError(
            f"mollification width {delta} must be below the horizon {horizon}"
        )
    nodes = np.linspace(-1.0, 1.0, quadrature_points)
    weights = _simpson_weights(quadrature_points) * bump_kernel(nodes)
    weights = weights / weights.sum()

    if driver._factors is not None:
        v, a, a0 = driver._factors

        def a_smooth(t):
            s, sign = _reflect_into(
                np.asarray(t, dtype=float)[:, None] - delta * nodes, horizon)
            raw = np.asarray(a(s.ravel()), dtype=float).reshape(s.shape) - a0
            # a dot per time, whatever their count (matmul switches to gemv)
            return np.vecdot(sign * raw, weights)

        return make_separable_driver(
            v, a_smooth, dim=driver.dim, channels=driver.channels,
            tau=driver.tau, lam=driver.lam, beta=driver.beta)

    base_fn = driver.fn

    def fn(t, x):
        acc = np.zeros((t.size, driver.channels))
        base0 = _as_channels(base_fn(np.zeros(t.size), x), t.size,
                             driver.channels)
        for u, w in zip(nodes, weights):
            s, sign = _reflect_into(t - delta * u, horizon)
            raw = _as_channels(base_fn(s, x), t.size, driver.channels)
            # odd reflection is a point reflection through (0, eta(0, x))
            acc += w * (sign[:, None] * (raw - base0) + base0)
        return acc

    return SpaceTimeDriver(fn=fn, dim=driver.dim, channels=driver.channels,
                           tau=driver.tau, lam=driver.lam, beta=driver.beta)


# -- seminorm estimation ---------------------------------------------------

@dataclass(frozen=True)
class SeminormEstimate:
    """Sampled lower bound of the driver seminorms on a product grid.

    weighted is the beta-weighted seminorm (sum of the rectangular, time and
    space quotient suprema); unweighted drops the spatial weight.  Both are
    lower bounds of the true suprema: only sampled pairs enter.
    """

    weighted: float
    unweighted: float
    tau: float
    lam: float
    beta: float
    components_weighted: tuple[float, float, float]
    components_unweighted: tuple[float, float, float]


def _pair_indices(count_a: int, count_b: int | None, budget: int,
                  key: int) -> tuple[np.ndarray, ...]:
    """Index tuples enumerating a pair family, uniformly subsampled past the
    budget with a deterministic stream."""
    if count_b is None:
        ii, jj = np.triu_indices(count_a, k=1)
        total = ii.size
        if total <= budget:
            return ii, jj
        keep = stream(key, total).choice(total, size=budget, replace=False)
        keep.sort()
        return ii[keep], jj[keep]
    total = count_a * count_b
    if total <= budget:
        ii = np.repeat(np.arange(count_a), count_b)
        jj = np.tile(np.arange(count_b), count_a)
        return ii, jj
    flat = stream(key, total).choice(total, size=budget, replace=False)
    flat.sort()
    return flat // count_b, flat % count_b


def estimate_seminorm(driver: SpaceTimeDriver, time_grid, space_grid,
                      beta: float, tau: float, lam: float) -> SeminormEstimate:
    """Estimate the weighted/unweighted driver seminorms on a sampled grid.

    Maximizes the three quotient families (rectangular increment, pure time
    increment, pure space increment) over sampled (s<t, x!=y) tuples.  The
    result never exceeds the true supremum.
    """
    if not 0 < tau <= 1 or not 0 < lam <= 1 or beta < 0:
        raise DomainError("seminorm exponents out of range")
    t = np.sort(np.asarray(time_grid, dtype=float).ravel())
    xs = np.asarray(space_grid, dtype=float)
    if xs.ndim == 1:
        xs = xs[:, None]
    n_t, n_x = t.size, xs.shape[0]
    if n_t < 2 or n_x < 2:
        raise DomainError("seminorm estimation needs >= 2 times and points")

    vals = np.empty((n_t, n_x, driver.channels))
    for i in range(n_t):
        vals[i] = driver.at_pairs(np.full(n_x, t[i]), xs)

    xnorm = np.linalg.norm(xs, axis=1)
    weight_pair = 1.0 + xnorm[:, None] ** beta + xnorm[None, :] ** beta
    weight_single = 1.0 + xnorm ** (beta + lam)
    xdist = np.linalg.norm(xs[:, None, :] - xs[None, :, :], axis=-1)

    # time quotients: pairs (s < t) crossed with single points x
    ti, tj = _pair_indices(n_t, None, max(1, _PAIR_BUDGET // max(n_x, 1)), 11)
    dt_tau = (t[tj] - t[ti])[:, None] ** tau
    tnum = np.linalg.norm(vals[tj] - vals[ti], axis=-1)  # (P_t, n_x)
    time_unw = float(np.max(tnum / dt_tau))
    time_w = float(np.max(tnum / (dt_tau * weight_single[None, :])))

    # space quotients: single times crossed with pairs (x != y)
    xi, xj = _pair_indices(n_x, None, max(1, _PAIR_BUDGET // max(n_t, 1)), 13)
    snum = np.linalg.norm(vals[:, xj] - vals[:, xi], axis=-1)  # (n_t, P_x)
    sden = xdist[xi, xj][None, :] ** lam
    space_unw = float(np.max(snum / sden))
    space_w = float(np.max(snum / (sden * weight_pair[xi, xj][None, :])))

    # rectangular quotients: time pairs crossed with space pairs
    pt, px = ti.size, xi.size
    ri, rj = _pair_indices(pt, px, _PAIR_BUDGET, 17)
    rect = (vals[tj[ri]][np.arange(ri.size), xj[rj]]
            - vals[ti[ri]][np.arange(ri.size), xj[rj]]
            - vals[tj[ri]][np.arange(ri.size), xi[rj]]
            + vals[ti[ri]][np.arange(ri.size), xi[rj]])
    rnum = np.linalg.norm(rect, axis=-1)
    rden = (t[tj[ri]] - t[ti[ri]]) ** tau * xdist[xi[rj], xj[rj]] ** lam
    rect_unw = float(np.max(rnum / rden))
    rect_w = float(np.max(rnum / (rden * weight_pair[xi[rj], xj[rj]])))

    return SeminormEstimate(
        weighted=rect_w + time_w + space_w,
        unweighted=rect_unw + time_unw + space_unw,
        tau=tau, lam=lam, beta=beta,
        components_weighted=(rect_w, time_w, space_w),
        components_unweighted=(rect_unw, time_unw, space_unw),
    )


# -- grid-sampled drivers and CSV round trip -------------------------------

def make_grid_driver(times: np.ndarray, space_axes: list[np.ndarray],
                     values: np.ndarray, tau: float, lam: float, beta: float
                     ) -> SpaceTimeDriver:
    """Driver interpolating grid samples multilinearly in (t, x).

    Queries outside the sampled hull are clamped to the boundary (constant
    extension), so before the first sampled time the field holds the first
    slice.  eta(0, x) = 0 comes from the recentring in at_pairs, on any time
    axis.  An axis that starts at t = 0 also has its first slice subtracted
    from the stored values, which then vanish at t = 0 as saved to CSV.
    """
    # imported here so that importing the package does not load scipy
    from scipy.interpolate import RegularGridInterpolator

    times = np.asarray(times, dtype=float).ravel()
    space_axes = [np.asarray(ax, dtype=float).ravel() for ax in space_axes]
    dim = len(space_axes)
    shape = (times.size, *(ax.size for ax in space_axes))
    values = np.asarray(values, dtype=float).reshape(shape)
    if times[0] == 0.0:
        values = values - values[0]

    axes = [times, *space_axes]
    keep = [i for i, ax in enumerate(axes) if ax.size > 1]
    lows = np.array([ax[0] for ax in axes])
    highs = np.array([ax[-1] for ax in axes])
    if keep:
        interp = RegularGridInterpolator(
            tuple(axes[i] for i in keep),
            values.reshape([axes[i].size for i in keep]),
            method="linear", bounds_error=False, fill_value=None,
        )
    else:
        interp = None
    const = float(values.reshape(-1)[0]) if interp is None else 0.0

    def fn(t, x):
        if interp is None:
            return np.full(t.size, const)
        pts = np.clip(np.column_stack([t, x]), lows, highs)
        return interp(pts[:, keep])

    drv = SpaceTimeDriver(fn=fn, dim=dim, channels=1, tau=tau, lam=lam,
                          beta=beta)
    drv.payload.update(times=times, space_axes=space_axes, values=values)
    return drv


def save_sampled_driver(driver: SpaceTimeDriver, path) -> None:
    """Serialize a grid-sampled driver: rows = time grid, columns = flattened
    space grid (time-major), one header row carrying the space coordinates."""
    if "values" not in driver.payload:
        raise DomainError("only grid-sampled drivers serialize to CSV")
    times = driver.payload["times"]
    axes = driver.payload["space_axes"]
    values = driver.payload["values"]
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = np.column_stack([m.ravel() for m in mesh])
    header = ["t"] + ["|".join(f"{c:.17g}" for c in row) for row in coords]
    flat = values.reshape(times.size, -1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, t in enumerate(times):
            writer.writerow([f"{t:.17g}"] + [f"{v:.17g}" for v in flat[i]])


def _csv_number(cell: str, row: int, col: int) -> float:
    try:
        return float(cell)
    except ValueError:
        raise DomainError(f"sampled-driver CSV row {row} column {col}: "
                          f"{cell!r} is not a number") from None


def load_sampled_driver(path, tau: float = 0.5, lam: float = 0.5,
                        beta: float = 0.0) -> SpaceTimeDriver:
    """Rebuild a grid-sampled driver from the CSV layout of
    save_sampled_driver.  The column coordinates must form a full product
    grid."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][0] != "t":
        raise DomainError("not a sampled-driver CSV (missing 't' header)")
    if len(rows) < 2:
        raise DomainError("sampled-driver CSV has a header but no time rows")
    ragged = [i for i, r in enumerate(rows) if len(r) != len(rows[0])]
    if ragged:
        raise DomainError(
            f"sampled-driver CSV row {ragged[0]} has {len(rows[ragged[0]])} "
            f"cells, the header has {len(rows[0])}")
    coords = np.array([[_csv_number(c, 0, j) for c in cell.split("|")]
                       for j, cell in enumerate(rows[0][1:], start=1)])
    dim = coords.shape[1]
    axes = [np.unique(coords[:, k]) for k in range(dim)]
    expected = np.column_stack(
        [m.ravel() for m in np.meshgrid(*axes, indexing="ij")])
    if coords.shape != expected.shape or not np.allclose(coords, expected):
        raise DomainError("CSV columns do not form a product grid "
                          "in time-major order")
    body = np.array([[_csv_number(c, i, j) for j, c in enumerate(r)]
                     for i, r in enumerate(rows[1:], start=1)])
    times, flat = body[:, 0], body[:, 1:]
    values = flat.reshape(times.size, *(ax.size for ax in axes))
    return make_grid_driver(times, axes, values, tau=tau, lam=lam, beta=beta)
