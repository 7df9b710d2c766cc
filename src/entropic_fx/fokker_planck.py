"""Forward density evolution for the log exchange rate.

Solves dp/dt = -d/dx[nu p] + (sigma^2/2) d^2p/dx^2 on a uniform grid with
a conservative flux-form discretization: the change in each cell is the
difference of fluxes through its faces, and the boundary faces carry zero
flux, so the discrete mass sum is conserved exactly (up to rounding).
Time stepping is Crank-Nicolson.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import MarketParams, log_coordinate
from .errors import DomainError, MassLeak, NumericalError
from .grids import DensityGrid, gaussian_density

# Negative output values in [-_CLIP_FLOOR, 0) are clipped to zero; anything
# more negative means the scheme has genuinely failed.
_CLIP_FLOOR = 1e-12
# Accumulated boundary-face |flux|*dt beyond this fraction of the mass
# means the density reached the edge of the grid.
_LEAK_TOL = 1e-8
# The initial condition must hold all but this much of its mass inside the
# central 80% of the grid.
_SUPPORT_TOL = 1e-12


@dataclass(frozen=True)
class FPGridSpec:
    """Spatial extent, resolution, and time-step cap for the evolution."""

    x_min: float
    x_max: float
    n_points: int = 2001
    dt_step: float = 1e-3

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise DomainError("grid bounds must be finite")
        if not self.x_min < self.x_max:
            raise DomainError("x_min must be less than x_max")
        if self.n_points < 3:
            raise DomainError("n_points must be at least 3")
        if not (self.dt_step > 0.0 and math.isfinite(self.dt_step)):
            raise DomainError("dt_step must be positive and finite")

    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)


def default_grid(
    params: MarketParams,
    t: float,
    n_points: int = 2001,
    n_time_steps: int = 1000,
) -> FPGridSpec:
    """Grid centered on the log-rate mean at time t, ten sigmas wide."""
    if not (t > 0.0 and math.isfinite(t)):
        raise DomainError("t must be positive and finite")
    if n_time_steps < 1:
        raise DomainError("n_time_steps must be at least 1")
    center = log_coordinate(params.u0) + params.log_drift * t
    half = 10.0 * params.sigma * math.sqrt(t)
    return FPGridSpec(
        x_min=center - half,
        x_max=center + half,
        n_points=n_points,
        dt_step=t / n_time_steps,
    )


def point_mass_density(points: np.ndarray, center: float) -> DensityGrid:
    """Narrow Gaussian standing in for a delta at ``center``.

    The width is three grid spacings: wide enough to be resolved, narrow
    enough that its variance is negligible next to the diffusion scale.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 1 or points.size < 2:
        raise DomainError("points must be a 1-D array with at least 2 entries")
    h = float(points[1] - points[0])
    if not (points[0] < center < points[-1]):
        raise DomainError("center must lie inside the grid")
    return gaussian_density(points, center, (3.0 * h) ** 2)


def analytic_density(params: MarketParams, t: float, points: np.ndarray) -> DensityGrid:
    """Exact log-rate density at time t: Gaussian with drift*t and var sigma^2 t."""
    if not (t > 0.0 and math.isfinite(t)):
        raise DomainError("t must be positive and finite")
    mean = log_coordinate(params.u0) + params.log_drift * t
    var = params.sigma * params.sigma * t
    return gaussian_density(np.asarray(points, dtype=float), mean, var)


def _check_initial_support(initial: DensityGrid) -> None:
    points = initial.points
    span = points[-1] - points[0]
    lo = points[0] + 0.1 * span
    hi = points[-1] - 0.1 * span
    inner = (points >= lo) & (points <= hi)
    outer_mass = initial.mass() - float(
        np.trapezoid(np.where(inner, initial.weights, 0.0), points)
    )
    if outer_mass > _SUPPORT_TOL:
        raise MassLeak(
            "initial density carries mass outside the central 80% of the grid; "
            "widen the grid before evolving"
        )


def _operator_diagonals(nu: float, diffusion: float, h: float, n: int):
    """Tridiagonal generator L with zero-flux boundary faces.

    Face flux between cells i and i+1 is the centered average advective
    part plus a two-point diffusive part; dividing flux differences by h
    gives rates of change.  Column sums of L vanish, which is exactly
    discrete mass conservation.
    """
    adv = 0.5 * nu / h
    dif = diffusion / (h * h)

    lower = np.full(n, adv + dif)
    upper = np.full(n, -adv + dif)
    diag = np.full(n, -2.0 * dif)
    diag[0] = -adv - dif
    diag[-1] = adv - dif
    lower[0] = 0.0
    upper[-1] = 0.0
    return lower, diag, upper


def _apply_tridiag(lower, diag, upper, p):
    out = diag * p
    out[1:] += lower[1:] * p[:-1]
    out[:-1] += upper[:-1] * p[1:]
    return out


class _TridiagonalLU:
    """A tridiagonal matrix factored once, then solved against many right-hand sides.

    ``lower`` and ``upper`` are the n-1 sub- and super-diagonal entries,
    ``diag`` the n main-diagonal ones.  LAPACK ``dgttrf`` factors with
    partial pivoting and ``dgttrs`` solves; together they run the same
    elimination and back-substitution as LAPACK's one-shot tridiagonal
    solver ``dgtsv``, so solutions are bitwise equal to a ``dgtsv`` solve
    of each right-hand side while the factorization is paid once.
    Non-finite entries and singular matrices raise NumericalError.
    """

    def __init__(self, lower: np.ndarray, diag: np.ndarray, upper: np.ndarray):
        from scipy.linalg.lapack import dgttrf, dgttrs

        if not all(np.isfinite(band).all() for band in (lower, diag, upper)):
            raise NumericalError("tridiagonal matrix has non-finite entries")
        *factors, info = dgttrf(lower, diag, upper)
        if info != 0:
            raise NumericalError(f"tridiagonal matrix is singular (zero pivot {info})")
        self._factors = factors
        self._dgttrs = dgttrs

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solution of A x = rhs; a contiguous float64 ``rhs`` is overwritten."""
        if not np.isfinite(rhs).all():
            raise NumericalError("right-hand side has non-finite entries")
        x, info = self._dgttrs(*self._factors, rhs, overwrite_b=1)
        if info != 0:
            raise NumericalError(f"tridiagonal solve failed (info {info})")
        return x


def _crank_nicolson(lower, diag, upper, v, dt, n_steps, implicit=0, rows=None, after=None):
    """March dv/dt = L v, L = tridiag(lower, diag, upper) laid out as in
    _operator_diagonals, by n_steps >= 1 steps of dt; return the last two states.

    I - dt/2 L is factored once.  The first ``implicit`` steps solve it
    against v, the rest against v + dt/2 L v (Crank-Nicolson).  ``rows(step)``
    gives the right-hand side's first and last entries; ``after(v, v')`` sees
    each step.
    """
    # 0.0 - x, not -x: a zero band entry must stay +0.0 in the matrix.
    lhs = _TridiagonalLU(
        0.0 - 0.5 * dt * lower[1:], 1.0 - 0.5 * dt * diag, 0.0 - 0.5 * dt * upper[:-1]
    )
    for step in range(n_steps):
        rhs = v.copy() if step < implicit else v + 0.5 * dt * _apply_tridiag(lower, diag, upper, v)
        if rows is not None:
            rhs[0], rhs[-1] = rows(step)
        old, v = v, lhs.solve(rhs)
        if after is not None:
            after(old, v)
    return old, v


def _finalize_weights(points: np.ndarray, p: np.ndarray) -> DensityGrid:
    """Clip round-off negatives, reject genuine undershoots."""
    worst = float(np.min(p))
    if worst < -_CLIP_FLOOR:
        raise NumericalError(
            f"evolution produced weight {worst:.3e} below the clip floor"
        )
    if worst < 0.0:
        return DensityGrid(points, np.maximum(p, 0.0)).normalize()
    return DensityGrid(points, p)


def evolve_density(
    initial: DensityGrid,
    params: MarketParams,
    t: float,
    spec: FPGridSpec,
) -> DensityGrid:
    """Evolve ``initial`` forward by time t under the log-rate dynamics.

    Raises MassLeak if the initial density already touches the grid edges
    or if boundary-face fluxes accumulate beyond a 1e-8 fraction of the
    mass during the run.
    """
    if not (t > 0.0 and math.isfinite(t)):
        raise DomainError("t must be positive and finite")
    points = spec.points()
    scale = max(1.0, abs(spec.x_min), abs(spec.x_max))
    if initial.points.shape != points.shape or not np.allclose(
        initial.points, points, rtol=0.0, atol=1e-12 * scale
    ):
        raise DomainError("initial density must live on the grid given by spec")
    _check_initial_support(initial)

    h = initial.h
    nu = params.log_drift
    diffusion = 0.5 * params.sigma * params.sigma

    n_steps = max(1, math.ceil(t / spec.dt_step - 1e-12))
    dt = t / n_steps

    adv = 0.5 * nu
    dif_h = diffusion / h
    mass0 = float(np.sum(initial.weights)) * h
    leak = 0.0

    def check_leak(p, p_next):
        nonlocal leak
        mid0 = 0.5 * (p[0] + p_next[0])
        mid1 = 0.5 * (p[1] + p_next[1])
        midm = 0.5 * (p[-2] + p_next[-2])
        midn = 0.5 * (p[-1] + p_next[-1])
        flux_lo = -adv * (mid0 + mid1) + dif_h * (mid1 - mid0)
        flux_hi = -adv * (midm + midn) + dif_h * (midn - midm)
        leak += (abs(flux_lo) + abs(flux_hi)) * dt
        if leak > _LEAK_TOL * mass0:
            raise MassLeak(
                "density reached the grid boundary during evolution; "
                "widen the grid or shorten the horizon"
            )

    bands = _operator_diagonals(nu, diffusion, h, spec.n_points)
    _, p = _crank_nicolson(*bands, initial.weights, dt, n_steps, after=check_leak)
    return _finalize_weights(points, p)
