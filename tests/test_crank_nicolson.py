"""The grid solvers against the exact flows of their grid operators.

``evolve_density`` and ``pde_price`` advance a constant-coefficient grid
operator L over time t by e^(lam t) per Fourier or sine mode.  They replaced
Crank-Nicolson time loops, and this module, its cases and its tests keep
those loops' names: a case's step count now only sets the ``dt_step`` its
grid carries, which no solver reads, and the one- and two-step point-mass
runs are short horizons of one and two such steps.  The references:

- ``solve_banded`` loops (``reference_evolve``, ``reference_pde``) build L
  as bands of their own and apply e^(L t) to the start as the parabolic
  contour quadrature sum_k c_k (z_k - L t)^-1 of Trefethen, Weideman and
  Schmelzer (BIT 46, 2006), with scipy's ``solve_banded`` at each of its
  nodes.  That needs no transform and runs on any grid, up to the
  benchmark's 8x grids.  For ``evolve_density``, L is the flux stencil on
  the start zero-padded to m, a 2,3,5-smooth length of at least 2n, and
  what ends in the padding is the leak; it leaves out the circulant's two
  corners, which carry only what crosses the far end of the padding.  For
  ``pde_price``, L is the tridiagonal ``_put_stencil`` with zero end rows,
  so that the end values stay put, applied to the put payoff.
- ``expm`` references build L as a dense matrix and apply scipy's
  ``expm(L t)`` on random markets with grids of 101 to 301 points, the
  padded evolve operator with its corners.

So a wrong eigenvalue, padding, scale or boundary treatment shows up.
Each solver is also written out here as its own transforms
(``transform_evolve``, ``transform_pde``), and the solvers must match those
to the bit, so a different padding length, a wrong scale or read window, or
an extra operation shows up even where it moves only the last digits that
the CLI prints.
"""

import itertools
import math

import numpy as np
import pytest

from entropic_fx import (
    DensityGrid,
    FPGridSpec,
    MarketParams,
    MassLeak,
    OptionSpec,
    default_grid,
    default_pde_grid,
    evolve_density,
    pde_price,
    point_mass_density,
)
from entropic_fx import pricing
from entropic_fx.dynamics import log_coordinate
from entropic_fx.fokker_planck import _LEAK_TOL, _finalize_weights

from conftest import operator_diagonals, same_bits

# Agreement with the solve_banded loops.  Their quadrature sums terms up to
# e^(z_k) ~ 66 times the start, so their rounding scales with the start:
# relative to the premium, or to the density's L1 norm.  They read ~1e-11
# on the 8x grids, whose point mass starts narrow and high.
PREMIUM_RTOL = 1e-9
DENSITY_L1_TOL = 1e-9
# Agreement with expm: relative to the density's L1 norm, or to the strike,
# the scale of the put's values.  Rounding leaves the solvers within ~1e-13.
FLOW_RTOL = 1e-11
N_MARKETS = 30
# Nodes of the parabolic contour z(theta) = N (0.1309 - 0.1194 theta^2 +
# 0.25 i theta); its error on the negative real axis falls as 2.85^-N.
CONTOUR_NODES = 32


def exp_times(lower, diag, upper, v, t):
    """e^(L t) v for L = tridiag(lower, diag, upper), real, with its spectrum
    in the left half-plane near the real axis: the contour quadrature, one
    ``solve_banded`` per node of the upper half, whose conjugates the real
    part doubles."""
    from scipy.linalg import solve_banded

    n = CONTOUR_NODES
    theta = math.pi * (2 * np.arange(n // 2) + 1) / n
    nodes = n * (0.1309 - 0.1194 * theta**2 + 0.25j * theta)
    slopes = n * (0.25j - 0.2388 * theta)
    # (3, size) banded storage of z - L t; ab[0, 0] and ab[2, -1] are unused.
    ab = np.zeros((3, v.size), complex)
    ab[0, 1:] = -t * upper
    ab[2, :-1] = -t * lower
    out = np.zeros(v.size)
    for z, slope in zip(nodes, slopes):
        ab[1] = z - t * diag
        out += (np.exp(z) * slope / (1j * n) * solve_banded((1, 1), ab, v)).real
    return 2.0 * out


def smooth_length(n):
    """The smallest length of at least n with no prime factor but 2, 3 and 5."""
    for m in itertools.count(n):
        k = m
        for prime in (2, 3, 5):
            while k % prime == 0:
                k //= prime
        if k == 1:
            return m


def evolve_stencil(params, h):
    """The interior stencil (l, d, u) of evolve_density's flux-form operator."""
    lower, diag, upper = operator_diagonals(params.log_drift, 0.5 * params.sigma**2, h, 3)
    return lower[1], diag[1], upper[1]


def check_leak(initial, p):
    """MassLeak, as the solver raises it, when the padding holds too much."""
    if np.sum(np.abs(p[initial.n :])) > _LEAK_TOL * np.sum(initial.weights):
        raise MassLeak("density reached the grid boundary during evolution")


def reference_evolve(initial, params, t, spec):
    """The weights e^(L t) gives on the grid for the start zero-padded to m,
    L the flux stencil's m-point bands, by the contour quadrature."""
    n = spec.n_points
    m = smooth_length(2 * n)
    lower, diag, upper = evolve_stencil(params, initial.h)
    start = np.concatenate((initial.weights, np.zeros(m - n)))
    p = exp_times(np.full(m - 1, lower), np.full(m, diag), np.full(m - 1, upper), start, t)
    check_leak(initial, p)
    return _finalize_weights(spec, p[:n]).weights


def reference_pde(params, opt, grid):
    """The premium off W, the undiscounted put, as e^(A T) of the payoff by
    the contour quadrature, A the put stencil's bands with zero end rows."""
    y = grid.points()
    n = grid.n_points
    lower_c, diag_c, upper_c = pricing._put_stencil(params.sigma, float(y[1] - y[0]))
    lower = np.full(n - 1, lower_c)
    diag = np.full(n, diag_c)
    upper = np.full(n - 1, upper_c)
    lower[-1] = upper[0] = diag[0] = diag[-1] = 0.0
    payoff = np.maximum(opt.strike - np.exp(y), 0.0)
    values = exp_times(lower, diag, upper, payoff, opt.expiry)
    # The end values solve the equation: the flow leaves them where they
    # began, up to the solves' rounding.
    assert np.allclose(values[[0, -1]], payoff[[0, -1]], rtol=0.0, atol=PREMIUM_RTOL * opt.strike)
    return read_premium(params, opt, y, values)


def expm_evolve(initial, params, t, spec):
    """The weights expm(C t) gives on the grid for the start zero-padded to
    m, C the m-point circulant of the flux stencil; MassLeak as the solver
    raises it."""
    from scipy.linalg import expm

    n = spec.n_points
    m = smooth_length(2 * n)
    lower, diag, upper = evolve_stencil(params, initial.h)
    rows = np.arange(m)
    circulant = np.zeros((m, m))
    circulant[rows, rows - 1] = lower
    circulant[rows, rows] = diag
    circulant[rows, (rows + 1) % m] = upper
    p = expm(circulant * t) @ np.concatenate((initial.weights, np.zeros(m - n)))
    check_leak(initial, p)
    return p[:n]


def expm_put(params, opt, grid):
    """W, the undiscounted put, on every node: expm(A T) of the payoff, A the
    tridiagonal put stencil with zero end rows."""
    from scipy.linalg import expm

    y = grid.points()
    n = grid.n_points
    lower, diag, upper = pricing._put_stencil(params.sigma, float(y[1] - y[0]))
    inner = np.arange(1, n - 1)
    operator = np.zeros((n, n))
    operator[inner, inner - 1] = lower
    operator[inner, inner] = diag
    operator[inner, inner + 1] = upper
    return expm(operator * opt.expiry) @ np.maximum(opt.strike - np.exp(y), 0.0)


def log_forward(params, opt):
    return log_coordinate(params.u0) + (params.drift_d - params.drift_f) * opt.expiry


def read_node(y, y0):
    """The first of the four nodes nearest y0 (of all three on three points)."""
    return max(0, min(int(np.searchsorted(y, y0)) - 2, y.size - 4))


def read_premium(params, opt, y, values):
    """The premium off the Lagrange cubic through the nodes nearest the log
    forward, discounted; a call by replication."""
    t = opt.expiry
    y0 = log_forward(params, opt)
    j = read_node(y, y0)
    near = y[j : j + 4]
    weights = [np.prod((y0 - near[near != yk]) / (yk - near[near != yk])) for yk in near]
    disc_d = math.exp(-params.drift_d * t)
    premium = disc_d * float(np.dot(weights, values[j : j + 4]))
    if opt.kind == "call":
        premium += params.u0 * math.exp(-params.drift_f * t) - opt.strike * disc_d
    return premium


def transform_evolve(initial, params, t, spec):
    """evolve_density's transforms on the references' own stencil: the
    density zero-padded to a 2,3,5-smooth length of at least 2n, rfft,
    e^(lam t) per Fourier mode, irfft, and the first n entries."""
    n = spec.n_points
    h = initial.h
    m = smooth_length(2 * n)
    # The stencil's eigenvalue l e^{-i theta} + d + u e^{i theta}, written
    # without the cancellation of its terms.
    adv = 0.5 * params.log_drift / h
    dif = 0.5 * params.sigma**2 / (h * h)
    theta = (2.0 * math.pi / m) * np.arange(m // 2 + 1)
    lam = -4.0 * dif * np.sin(0.5 * theta) ** 2 - 2j * adv * np.sin(theta)
    p = np.fft.irfft(np.fft.rfft(initial.weights, m) * np.exp(lam * t), m)[:n]
    return _finalize_weights(spec, p).weights


def transform_pde(params, opt, grid):
    """pde_price's transforms on the references' own stencil and read: the
    end values' part Phi = a + b e^(y - y_max) subtracted, the rest scaled by
    e^((y0 - y)/2) (exponent clipped to +-700), one DST-I as an rfft of its
    odd extension, e^(lam T) per sine mode, the inverse, and the scale
    undone.  Returns the premium."""
    y = grid.points()
    n = grid.n_points
    h = float(y[1] - y[0])
    y0 = log_forward(params, opt)
    payoff = np.maximum(opt.strike - np.exp(y), 0.0)
    phi = payoff[0] * np.expm1(y - y[-1]) / math.expm1(y[0] - y[-1])
    scale = np.exp(np.clip(0.5 * (y0 - y), -700.0, 700.0))
    z = (payoff - phi) * scale
    spectrum = np.fft.rfft(np.concatenate((z, -z[-2:0:-1])))
    # The symmetric stencil's eigenvalue d + 2 sqrt(l u) cos(theta), with
    # sqrt(l u) = l e^(-h/2), written without the cancellation of its terms.
    lower = pricing._put_stencil(params.sigma, h)[0]
    theta = (math.pi / (n - 1)) * np.arange(n)
    lam = -lower * math.expm1(-0.5 * h) ** 2 - 4.0 * (
        lower * math.exp(-0.5 * h)
    ) * np.sin(0.5 * theta) ** 2
    values = np.fft.irfft(spectrum * np.exp(lam * opt.expiry), 2 * (n - 1))[:n] / scale + phi
    return read_premium(params, opt, y, values)


def random_market(seed):
    """A market, an option and a grid size from a box where the default grids
    hold the point mass and the payoff with room to spare."""
    rng = np.random.default_rng([3041, seed])
    market = MarketParams.risk_neutral(
        float(rng.uniform(0.5, 2.0)), float(rng.uniform(-0.05, 0.1)),
        float(rng.uniform(-0.05, 0.1)), float(rng.uniform(0.1, 1.0)),
    )
    strike = market.u0 * math.exp(float(rng.uniform(-0.5, 0.5)))
    opt = OptionSpec(("call", "put")[seed % 2], strike, float(rng.uniform(0.1, 3.0)))
    return market, opt, int(rng.integers(101, 302))


MARKET = MarketParams.risk_neutral(1.3, 0.05, 0.02, 0.25)

PDE_CASES = {
    "one_step": lambda opt: default_pde_grid(MARKET, opt, n_time_steps=1),
    "two_steps": lambda opt: default_pde_grid(MARKET, opt, n_time_steps=2),
    "default": lambda opt: default_pde_grid(MARKET, opt),
    "fine_8x": lambda opt: default_pde_grid(MARKET, opt, n_points=8 * 1600 + 1),
}


def small_grid_pde(n_points, n_time_steps, kind):
    """A 3- or 4-point grid.  Log spot 0.3 (call) or -0.3 (put) on a (-2, 2)
    grid, where a 3-point grid's parabola keeps the put, and the call
    replicated from it, positive."""
    market = MarketParams.risk_neutral(
        math.exp(0.3 if kind == "call" else -0.3), 0.05, 0.02, 0.2
    )
    grid = FPGridSpec(-2.0, 2.0, n_points, dt_step=1.0 / n_time_steps)
    return market, OptionSpec(kind, 1.0, 1.0), grid


def pde_case(case, kind, strike):
    """(market, option, grid) of a case of PDE_CASES on MARKET, or of a
    small grid named (n_points, n_time_steps)."""
    if isinstance(case, tuple):
        return small_grid_pde(*case, kind)
    opt = OptionSpec(kind, strike, 0.7)
    return MARKET, opt, PDE_CASES[case](opt)


PDE_RUNS = [
    *(
        pytest.param(case, kind, strike, id=f"{case}-{kind}-{strike}")
        for case in sorted(PDE_CASES)
        for kind, strike in [("call", 1.1), ("put", 1.6)]
    ),
    *(
        pytest.param((n_points, n_steps), kind, 1.0, id=f"{n_points}_points-{n_steps}_steps-{kind}")
        for n_points in (3, 4)
        for n_steps in (1, 2, 400)
        for kind in ("call", "put")
    ),
]


class TestPdePrice:
    @pytest.mark.parametrize("kind, strike", [("call", 1.1), ("put", 1.6)])
    @pytest.mark.parametrize("case", sorted(PDE_CASES))
    def test_bitwise_equal_to_reference_loop(self, case, kind, strike):
        market, opt, grid = pde_case(case, kind, strike)
        result = pde_price(market, opt, grid)
        assert same_bits(result.premium, transform_pde(market, opt, grid))
        assert result.diagnostics["residual"] == 0.0

    @pytest.mark.parametrize("case, kind, strike", PDE_RUNS)
    def test_matches_solve_banded_loop(self, case, kind, strike):
        market, opt, grid = pde_case(case, kind, strike)
        result = pde_price(market, opt, grid)
        premium = reference_pde(market, opt, grid)
        assert result.premium == pytest.approx(premium, rel=PREMIUM_RTOL, abs=0.0)
        assert result.diagnostics["residual"] == 0.0

    @pytest.mark.parametrize("kind", ["call", "put"])
    @pytest.mark.parametrize("n_points", [3, 4])
    @pytest.mark.parametrize("n_time_steps", [1, 2, 400])
    def test_small_grids_bitwise_equal_to_reference_loop(self, n_points, n_time_steps, kind):
        market, opt, grid = small_grid_pde(n_points, n_time_steps, kind)
        result = pde_price(market, opt, grid)
        assert same_bits(result.premium, transform_pde(market, opt, grid))
        assert result.diagnostics["residual"] == 0.0

    def test_one_step_has_no_crank_nicolson_residual(self):
        opt = OptionSpec("call", 1.1, 0.7)
        result = pde_price(MARKET, opt, PDE_CASES["one_step"](opt))
        assert result.diagnostics["residual"] == 0.0

    @pytest.mark.parametrize("seed", range(N_MARKETS))
    def test_matches_expm(self, seed):
        market, opt, n_points = random_market(seed)
        grid = default_pde_grid(market, opt, n_points=n_points)
        y = grid.points()
        y0 = log_forward(market, opt)
        reference = expm_put(market, opt, grid)
        j = read_node(y, y0)
        values = pricing._solve_put(market.sigma, opt.strike, y, y0, opt.expiry, slice(j, j + 4))
        assert np.max(np.abs(values - reference[j : j + 4])) <= FLOW_RTOL * opt.strike
        premium = pde_price(market, opt, grid).premium
        expected = read_premium(market, opt, y, reference)
        assert abs(premium - expected) <= FLOW_RTOL * max(market.u0, opt.strike)


def point_mass_run(n_points, n_steps):
    """A point mass evolved over n_steps of the default grid's dt_step,
    0.7/1000."""
    spec = default_grid(MARKET, 0.7, n_points=n_points, n_time_steps=1000)
    t = n_steps * spec.dt_step
    return point_mass_density(spec.points(), math.log(MARKET.u0)), MARKET, t, spec


def small_grid_run(n_points, n_time_steps):
    # The central node or two carry all the mass, so the support check passes;
    # a tiny sigma keeps the padding's share under the leak tolerance.
    market = MarketParams(u0=1.0, drift_d=0.02, drift_f=0.02, sigma=5e-5)
    spec = FPGridSpec(-1.0, 1.0, n_points, dt_step=1.0 / n_time_steps)
    weights = np.zeros(n_points)
    weights[(n_points - 1) // 2] = 0.6
    weights[n_points // 2] += 0.4
    return DensityGrid(spec.points(), weights), market, 1.0, spec


FP_CASES = {
    "one_step": lambda: point_mass_run(2001, 1),
    "two_steps": lambda: point_mass_run(2001, 2),
    "default": lambda: point_mass_run(2001, 1000),
    "fine_8x": lambda: point_mass_run(8 * 2000 + 1, 1000),
    "three_points_one_step": lambda: small_grid_run(3, 1),
    "three_points": lambda: small_grid_run(3, 50),
    "four_points_two_steps": lambda: small_grid_run(4, 2),
    "four_points": lambda: small_grid_run(4, 50),
}


class TestEvolveDensity:
    @pytest.mark.parametrize("case", sorted(FP_CASES))
    def test_bitwise_equal_to_reference_loop(self, case):
        args = FP_CASES[case]()
        assert same_bits(evolve_density(*args).weights, transform_evolve(*args))

    @pytest.mark.parametrize("case", sorted(FP_CASES))
    def test_matches_solve_banded_loop(self, case):
        args = FP_CASES[case]()
        weights = evolve_density(*args).weights
        reference = reference_evolve(*args)
        assert np.sum(np.abs(weights - reference)) <= DENSITY_L1_TOL * np.sum(reference)
        assert not np.array_equal(weights, args[0].weights)  # the density moved

    def test_leak_raises_like_reference_loop(self):
        # Spot near the top edge of a narrow grid: the padding holds more than
        # the leak tolerance at t, under the solver and the reference alike.
        spec = FPGridSpec(-1.0, 1.0, 201, dt_step=1e-3)
        args = (point_mass_density(spec.points(), 0.26), MARKET, 5.0, spec)
        with pytest.raises(MassLeak):
            reference_evolve(*args)
        with pytest.raises(MassLeak):
            evolve_density(*args)

    @pytest.mark.parametrize("seed", range(N_MARKETS))
    def test_matches_expm(self, seed):
        market, opt, n_points = random_market(seed)
        spec = default_grid(market, opt.expiry, n_points=n_points)
        args = (point_mass_density(spec.points(), math.log(market.u0)), market, opt.expiry, spec)
        weights = evolve_density(*args).weights
        reference = expm_evolve(*args)
        assert np.sum(np.abs(weights - reference)) <= FLOW_RTOL * np.sum(np.abs(reference))


class TestOneFlow:
    """One inverse transform per call, whatever time step the grid carries:
    no solver reads dt_step."""

    def test_one_inverse_transform_per_call(self, monkeypatch):
        calls = []
        irfft = np.fft.irfft

        def counted(*args, **kwargs):
            calls.append(1)
            return irfft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", counted)
        evolve_density(*FP_CASES["default"]())
        assert len(calls) == 1
        pde_price(*pde_case("default", "put", 1.6))
        assert len(calls) == 2

    def test_dt_step_changes_nothing(self):
        initial, market, t, spec = FP_CASES["default"]()
        coarse = FPGridSpec(spec.x_min, spec.x_max, spec.n_points, dt_step=t)
        assert same_bits(
            evolve_density(initial, market, t, spec).weights,
            evolve_density(DensityGrid(coarse, initial.weights), market, t, coarse).weights,
        )
        market, opt, grid = pde_case("default", "call", 1.1)
        coarse = FPGridSpec(grid.x_min, grid.x_max, grid.n_points, dt_step=opt.expiry)
        assert same_bits(pde_price(market, opt, grid).premium, pde_price(market, opt, coarse).premium)
