"""Forward density evolution for the log exchange rate.

Solves dp/dt = -d/dx[nu p] + (sigma^2/2) d^2p/dx^2 on a uniform grid with
a conservative flux-form discretization: the change in each cell is the
difference of fluxes through its faces, so the discrete mass sum is
conserved exactly (up to rounding).  The coefficients are constant in the
log rate, so on a periodic grid the Fourier modes are the operator's
eigenvectors, and its exact flow over time t multiplies each mode by
e^(lam t), lam the mode's eigenvalue: there is no time step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MassLeak, NumericalError, require_at_least, require_positive
from .grids import MAX_GRID_POINTS, DensityGrid, UniformGrid, gaussian_density
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
class FPGridSpec(UniformGrid):
    """A UniformGrid of 3 to MAX_GRID_POINTS log rates, checked when built.

    No solver reads ``dt_step``: both are exact in time.  It stays, with the
    ``n_time_steps`` of ``from_steps``, ``default_grid`` and
    ``default_pde_grid``, only because the benchmark still passes and reads
    it, until its spans come from the library (ROADMAP item 13, step 2).
    """

    n_points: int = 2001
    dt_step: float = 1e-3

    def __post_init__(self):
        if not 3 <= self.n_points <= MAX_GRID_POINTS:
            raise DomainError(f"n_points must be between 3 and {MAX_GRID_POINTS}")
        super().__post_init__()
        require_positive("dt_step", self.dt_step)

    @classmethod
    def from_steps(
        cls, x_min: float, x_max: float, n_points: int, t: float, n_time_steps: int
    ) -> FPGridSpec:
        """The grid with dt_step = t / n_time_steps."""
        require_at_least("n_time_steps", n_time_steps, 1)
        return cls(x_min, x_max, n_points, t / n_time_steps)


def default_grid(
    params: MarketParams,
    t: float,
    n_points: int = 2001,
    n_time_steps: int = 1000,
) -> FPGridSpec:
    """Grid centered on the log-rate mean at time t, ten sigmas wide.

    ``n_time_steps`` sets only ``dt_step`` (see FPGridSpec).
    """
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
    return gaussian_density(points, mean, var)


def _check_initial_support(initial: DensityGrid) -> None:
    # The trapezoidal mass but for nodes N/10..9N/10 of N intervals (the central 80%).
    w, n = initial.weights, initial.n - 1
    outer = np.sum(w[: -(-n // 10)]) + np.sum(w[9 * n // 10 + 1 :]) - 0.5 * (w[0] + w[-1])
    if outer * initial.h > _SUPPORT_TOL:
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


def _finalize_weights(grid: UniformGrid, p: np.ndarray) -> DensityGrid:
    """Clip round-off negatives, reject genuine undershoots.

    Round-off scales with the density, so the floor is relative to its peak.
    """
    worst = float(np.min(p))
    if not worst >= -_CLIP_FLOOR * float(np.max(p)):
        raise NumericalError(
            f"evolution produced weight {worst:.3e} below the clip floor"
        )
    if worst < 0.0:
        return DensityGrid(grid, np.maximum(p, 0.0)).normalize()
    return DensityGrid(grid, p)


def evolve_density(
    initial: DensityGrid,
    params: MarketParams,
    t: float,
    spec: FPGridSpec,
) -> DensityGrid:
    """Evolve ``initial`` forward by time t under the log-rate dynamics.

    The grid is zero-padded to a periodic one at least twice as long, where
    the grid operator's exact flow is e^(lam t) per Fourier mode, through
    one rfft and one irfft.  The padding takes up what crosses the grid's
    ends.  Raises MassLeak if the initial density already touches the grid
    edges, or if more than a 1e-8 fraction of the mass is in the padding at
    time t.
    """
    require_positive("t", t)
    if not initial.grid.matches(spec):
        raise DomainError("initial density must live on the grid given by spec")
    _check_initial_support(initial)

    n = spec.n_points
    h = initial.h
    # Face flux between cells i and i+1: the centred average of the advective
    # part plus a two-point diffusive part, divided by h.  Its interior
    # stencil is (adv + dif, -2 dif, dif - adv).
    adv = 0.5 * params.log_drift / h
    dif = 0.5 * params.sigma * params.sigma / (h * h)
    m = _fft_length(2 * n)
    # l e^{-i theta} + d + u e^{i theta}, without the cancellation of its terms.
    theta = (2.0 * math.pi / m) * np.arange(m // 2 + 1)
    lam = np.multiply(2j * adv, np.sin(theta), out=np.empty(theta.size, complex))
    np.subtract(-4.0 * dif * np.sin(0.5 * theta) ** 2, lam, out=lam)
    del theta
    # e^(lam t) in lam's memory and the product in the spectrum's: only the
    # spectrum is alive through the inverse transform.
    np.exp(np.multiply(lam, t, out=lam), out=lam)
    spectrum = np.fft.rfft(initial.weights, m)
    np.multiply(spectrum, lam, out=spectrum)
    del lam
    p = np.fft.irfft(spectrum, m)
    del spectrum
    if float(np.sum(np.abs(p[n:], out=p[n:]))) > _LEAK_TOL * float(np.sum(initial.weights)):
        raise MassLeak(
            "density reached the grid boundary during evolution; "
            "widen the grid or shorten the horizon"
        )
    if not np.isfinite(p).all():
        raise NumericalError("evolution overflowed to non-finite values")
    p = p[:n].copy()  # the padding goes before the result is built and checked
    return _finalize_weights(initial.grid, p)
