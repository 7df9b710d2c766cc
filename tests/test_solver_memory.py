"""Peak memory of the three grid solvers, and the inputs they must not touch.

``solve_maxent``, ``evolve_density`` and ``pde_price`` form their full-size
intermediates in memory they already hold (``out=`` and an early ``del``),
so tracemalloc's peak per grid point stays near the number of arrays each
needs at once: maxent's features, covariance workspace and weights;
evolve's spectrum, eigenvalues, one work array and the leak check's flow;
the PDE's spectrum, eigenvalues, factor and one inverse transform.  Each
bound sits between that count and what the solvers took before they ran
in place (137, 79 and 82 bytes per point at this size), so a reintroduced
full-size temporary fails it.

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
    pde_price,
    point_mass_density,
    solve_maxent,
    uniform_density,
)
from entropic_fx.fokker_planck import _crank_nicolson_factor

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
    assert peak_bytes_per_point(lambda: evolve_density(initial, MARKET, 1.0, spec)) <= 72.0


def test_pde_peak_memory():
    grid = default_pde_grid(MARKET, CALL, N_POINTS, 400)
    assert peak_bytes_per_point(lambda: pde_price(MARKET, CALL, grid)) <= 74.0


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


@pytest.mark.parametrize("values", [(-4.0, -1.0, -0.5), (-4.0, -1.0, -0.5 - 0.25j)],
                         ids=["real", "complex"])
@pytest.mark.parametrize("stencil", [(1.0, -2.0, 1.0), (100.0, -200.0, 100.0)],
                         ids=["no_split", "split"])
def test_factor_writes_lam_only_when_asked(values, stencil):
    lam = np.array(values)
    before = lam.tobytes()
    factor = _crank_nicolson_factor(lam, stencil, 0.5, 3)
    assert lam.tobytes() == before
    # Given lam itself as out (complex only), the factor keeps its bits.
    if lam.dtype == complex:
        in_place = _crank_nicolson_factor(lam, stencil, 0.5, 3, out=lam)
        assert in_place.tobytes() == factor.tobytes()
