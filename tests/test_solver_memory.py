"""Peak memory of the three grid solvers, and the inputs they must not touch.

``solve_maxent``, ``evolve_density`` and ``pde_price`` form their full-size
intermediates in memory they already hold (``out=`` and an early ``del``),
so tracemalloc's peak per grid point stays near the number of arrays each
needs at once: maxent's features, covariance workspace and weights;
evolve's eigenvalues (which become e^(lam t)) and spectrum, then the one
inverse transform; the PDE's spectrum and eigenvalues, then the one
inverse transform.  The maxent bound sits between that count and what the
solver took before it ran in place (137 bytes per point at this size).
The evolve and PDE bounds sit between their readings, 41 and 48 bytes per
point, and those of the in-place Crank-Nicolson solvers that the exact
flow replaced, 65 and 66, so a reintroduced full-size temporary fails
them.

Building a density checks its points array once and keeps no copy of it:
``gaussian_density`` at 20,001 points peaks at 32 bytes per point (the
squared distances, their shifted exponential and the normalized weights),
against 48 when every construction checked the array with three full-size
temporaries and the density held it.

Working in place is only safe on the solver's own arrays, so the caller's
grid, prior, initial density and spec points must come back bit for bit.
"""

import math
import tracemalloc

import numpy as np
import pytest

from entropic_fx import (
    ConstraintSpec,
    FirstMoment,
    MarketParams,
    OptionSpec,
    SecondCentralMoment,
    default_grid,
    default_pde_grid,
    evolve_density,
    gaussian_density,
    pde_price,
    point_mass_density,
    solve_maxent,
    uniform_density,
)

N_POINTS = 20_001
MARKET = MarketParams.risk_neutral(1.0, 0.05, 0.02, 0.2)
CALL = OptionSpec("call", 1.0, 1.0)
# The benchmark's maxent problem: the GBM kernel's mean and second moment.
MEAN, VAR = MARKET.log_drift, 0.04
MOMENTS = ConstraintSpec((FirstMoment(), SecondCentralMoment(0.0)), (MEAN, VAR + MEAN * MEAN))


def maxent_inputs(n_points):
    half = abs(MEAN) + 12.0 * math.sqrt(VAR)
    grid = np.linspace(-half, half, n_points)
    return grid, uniform_density(grid)


def peak_bytes_per_point(solve) -> float:
    """tracemalloc's peak during solve(), per grid point.  The first call
    builds numpy's cached FFT plans, so the second is measured."""
    solve()
    tracemalloc.start()
    try:
        solve()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / N_POINTS


def test_maxent_peak_memory():
    grid, prior = maxent_inputs(N_POINTS)
    assert peak_bytes_per_point(lambda: solve_maxent(grid, prior, MOMENTS)) <= 80.0


def test_evolve_peak_memory():
    spec = default_grid(MARKET, 1.0, N_POINTS, 1000)
    initial = point_mass_density(spec.points(), 0.0)
    assert peak_bytes_per_point(lambda: evolve_density(initial, MARKET, 1.0, spec)) <= 56.0


def test_pde_peak_memory():
    grid = default_pde_grid(MARKET, CALL, N_POINTS, 400)
    assert peak_bytes_per_point(lambda: pde_price(MARKET, CALL, grid)) <= 56.0


def test_gaussian_density_peak_memory():
    points = np.linspace(-1.0, 1.0, N_POINTS)
    assert peak_bytes_per_point(lambda: gaussian_density(points, 0.0, 0.01)) <= 40.0


def bit_copies(*arrays):
    return [a.tobytes() for a in arrays]


@pytest.mark.parametrize("n_time_steps", [1, 1000])
def test_solvers_leave_their_inputs_alone(n_time_steps):
    grid, prior = maxent_inputs(2001)
    before = bit_copies(grid, prior.points, prior.weights)
    solve_maxent(grid, prior, MOMENTS)
    assert bit_copies(grid, prior.points, prior.weights) == before

    spec = default_grid(MARKET, 1.0, 2001, n_time_steps)
    points = spec.points()
    initial = point_mass_density(points, 0.0)
    before = bit_copies(points, initial.points, initial.weights)
    evolved = evolve_density(initial, MARKET, 1.0, spec)
    assert bit_copies(points, initial.points, initial.weights) == before
    assert evolved.points.tobytes() == spec.points().tobytes() == before[0]

    pde_grid = default_pde_grid(MARKET, CALL, 2001, n_time_steps)
    before = bit_copies(pde_grid.points())
    pde_price(MARKET, CALL, pde_grid)
    assert bit_copies(pde_grid.points()) == before
