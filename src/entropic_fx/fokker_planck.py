"""Forward density evolution for the log exchange rate.

Solves dp/dt = -d/dx[nu p] + (sigma^2/2) d^2p/dx^2 on a uniform grid with
a conservative flux-form discretization: the change in each cell is the
difference of fluxes through its faces, so the discrete mass sum is
conserved exactly (up to rounding).  Time stepping is Crank-Nicolson.  The
coefficients are constant in the log rate, so on a periodic grid the
Fourier modes are the scheme's eigenvectors, and all of its steps are one
multiplier per mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MassLeak, NumericalError, require_at_least, require_positive
from .grids import MAX_GRID_POINTS, DensityGrid, gaussian_density
from .market import MarketParams, log_coordinate

# Negative output values in [-_CLIP_FLOOR, 0) are clipped to zero; anything
# more negative means the scheme has genuinely failed.
_CLIP_FLOOR = 1e-12
# Mass carried off the grid into the transform's zero padding beyond this
# fraction of the initial mass means the density reached the grid's edge.
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
        if not 3 <= self.n_points <= MAX_GRID_POINTS:
            raise DomainError(f"n_points must be between 3 and {MAX_GRID_POINTS}")
        require_positive("dt_step", self.dt_step)

    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)

    def n_steps(self, t: float) -> int:
        """The fewest equal steps of at most dt_step that span t.

        The relative slack forgives the rounding of dt_step = t / N, so that
        t / dt_step, a few ulps above N, still gives N steps at any N.
        """
        return max(1, math.ceil(t / self.dt_step * (1.0 - 1e-12)))

    @classmethod
    def from_steps(
        cls, x_min: float, x_max: float, n_points: int, t: float, n_time_steps: int
    ) -> FPGridSpec:
        """The grid that spans t in n_time_steps equal steps."""
        require_at_least("n_time_steps", n_time_steps, 1)
        return cls(x_min, x_max, n_points, t / n_time_steps)


def default_grid(
    params: MarketParams,
    t: float,
    n_points: int = 2001,
    n_time_steps: int = 1000,
) -> FPGridSpec:
    """Grid centered on the log-rate mean at time t, ten sigmas wide."""
    require_positive("t", t)
    center = log_coordinate(params.u0) + params.log_drift * t
    half = 10.0 * params.sigma * math.sqrt(t)
    return FPGridSpec.from_steps(center - half, center + half, n_points, t, n_time_steps)


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
    require_positive("t", t)
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


def _fft_length(n: int) -> int:
    """The smallest m >= n whose only prime factors are 2, 3 and 5."""
    best = 1 << (n - 1).bit_length()
    odd = 1
    while odd < best:
        part = odd
        while part < best:
            best = min(best, part << (-(-n // part) - 1).bit_length())
            part *= 3
        odd *= 5
    return best


def _crank_nicolson_factor(lam, stencil, dt: float, n_steps: int, out=None):
    """What n_steps Crank-Nicolson steps of dt multiply an eigenvector of L
    by, for L's eigenvalues ``lam``; L has the interior stencil (l, d, u).
    ``out``, a complex array of lam's shape (lam itself when the caller is
    done with it), takes x and, on a split first step, the factor.

    A step takes v' = A^-1 (2I - A) v with A = I - (dt/2) L, so it multiplies
    a mode by g = (1 + x) / (1 - x), x = lam dt/2.  For the grid's
    highest-frequency mode g is (2 - a)/a, where a = d - l - u is A's
    interior stencil summed with alternating signs.  When a > 2 that is
    negative and a rough start rings, so the first step is then replaced by
    two implicit half-steps v' = A^-1 v (Rannacher), which damp it: the
    factor is g^(N-1) / (1 - x)^2 rather than g^N.  g^k is taken as
    e^(2k atanh x), which keeps its accuracy where g rounds to near 1 and k
    is large; where x = -1, g is 0 and the infinite atanh x is not taken.
    """
    l, d, u = stencil
    half = 0.5 * dt
    x = np.multiply(half, lam, out=out, dtype=complex)
    split = (1.0 - half * d) + half * l + half * u > 2.0
    k = n_steps - 1 if split else n_steps
    power = 1.0
    if k:
        g_zero = x == -1.0
        power = np.arctanh(x, out=np.zeros_like(x), where=~g_zero)
        np.exp(np.multiply(2.0 * k, power, out=power), out=power)
        power[g_zero] = 0.0
    if split:  # (1 - x)^2 in x's memory: two arrays of modes at most
        power = np.divide(power, np.square(np.subtract(1.0, x, out=x), out=x), out=x)
    return power


def _finalize_weights(points: np.ndarray, p: np.ndarray) -> DensityGrid:
    """Clip round-off negatives, reject genuine undershoots.

    Round-off scales with the density, so the floor is relative to its peak.
    """
    worst = float(np.min(p))
    if not worst >= -_CLIP_FLOOR * float(np.max(p)):
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

    The grid is zero-padded to a periodic one at least twice as long, where
    Crank-Nicolson is one multiplier per Fourier mode, through rfft and
    irfft.  The padding takes up what crosses the grid's ends.  Raises
    MassLeak if the initial density already touches the grid edges, or if
    the exact-in-time flow of the grid operator leaves more than a 1e-8
    fraction of the mass in the padding at time t.
    """
    require_positive("t", t)
    points = spec.points()
    scale = max(1.0, abs(spec.x_min), abs(spec.x_max))
    if initial.points.shape != points.shape or not np.allclose(
        initial.points, points, rtol=0.0, atol=1e-12 * scale
    ):
        raise DomainError("initial density must live on the grid given by spec")
    del points  # built again for the result, so it is not held through the transforms
    _check_initial_support(initial)

    n = spec.n_points
    h = initial.h
    nu = params.log_drift
    n_steps = spec.n_steps(t)

    # Face flux between cells i and i+1: the centred average of the advective
    # part plus a two-point diffusive part, divided by h.
    adv = 0.5 * nu / h
    dif = 0.5 * params.sigma * params.sigma / (h * h)
    stencil = (adv + dif, -2.0 * dif, -adv + dif)
    m = _fft_length(2 * n)
    spectrum = np.fft.rfft(initial.weights, m)
    # l e^{-i theta} + d + u e^{i theta}, without the cancellation of its terms.
    theta = (2.0 * math.pi / m) * np.arange(m // 2 + 1)
    lam = np.multiply(2j * adv, np.sin(theta), out=np.empty(theta.size, complex))
    np.subtract(-4.0 * dif * np.sin(0.5 * theta) ** 2, lam, out=lam)
    del theta
    # The leak is judged on the exact-in-time flow e^(lam t), since it asks
    # whether the grid is wide enough for the horizon: a run of a few long
    # steps starts with implicit half-steps, whose exponential tails reach
    # past a grid that the density does not (2.3e-8 of the mass on the
    # default grid at one step).  One transform at a time, each product
    # formed in memory the solve already holds, and each array freed once
    # used keep peak memory down.
    work = np.multiply(lam, t, out=np.empty_like(lam))
    np.exp(work, out=work)
    flow = np.fft.irfft(np.multiply(spectrum, work, out=work), m)
    del work
    if float(np.sum(np.abs(flow[n:], out=flow[n:]))) > _LEAK_TOL * float(np.sum(initial.weights)):
        raise MassLeak(
            "density reached the grid boundary during evolution; "
            "widen the grid or shorten the horizon"
        )
    del flow
    # lam is dead once the factor has it, so the factor may overwrite it.
    spectrum *= _crank_nicolson_factor(lam, stencil, t / n_steps, n_steps, out=lam)
    del lam
    p = np.fft.irfft(spectrum, m)
    del spectrum
    if not np.isfinite(p).all():
        raise NumericalError("evolution overflowed to non-finite values")
    p = p[:n].copy()  # the padding goes before the result is built and checked
    return _finalize_weights(spec.points(), p)
