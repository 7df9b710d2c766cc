"""The spectral grid solvers against the time loops they replaced.

``evolve_density`` and ``pde_price`` take all their Crank-Nicolson steps as
one multiplier per Fourier or sine mode.  The references below are the
loops each solver would run step by step: they assemble their own matrix
and boundary rows and take their own steps (two implicit half-steps where
Crank-Nicolson would ring, then Crank-Nicolson as x' = 2 A^-1 x - x), with
scipy's ``solve_banded`` on every step (``BandedSolve``), so a wrong
eigenvalue, a wrong split rule or a wrong boundary treatment shows up.
The solvers must match them within the stated tolerances.

Each solver is also written out here as its own transforms
(``transform_evolve``, ``transform_pde``), built on the loops' stencil and
premium read and sharing only the library's per-mode factor
``_crank_nicolson_factor``.  The solvers must match those to the bit, so a
stencil that drifts from the loops' bands, a different padding length, a
wrong scale or read window, or any extra operation shows up even where it
moves only the last digits that the CLI prints.
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
from entropic_fx.dynamics import log_coordinate
from entropic_fx.fokker_planck import _LEAK_TOL, _crank_nicolson_factor, _finalize_weights

from conftest import BandedSolve, operator_diagonals, same_bits

# Agreement with the per-step solve_banded loops.  The transforms and the
# linear solves differ in rounding, and the loops carry theirs along:
# relative to the premium, or to the density's L1 norm.
PREMIUM_RTOL = 1e-9
DENSITY_L1_TOL = 1e-9
# The last step's defect, of the loops and of pde_price, stays at rounding
# level (a few 1e-10 on the 8x grid).
RESIDUAL_MAX = 1e-8


def reference_evolve(initial, params, t, spec, factor=BandedSolve):
    """evolve_density's own loop: two implicit half-steps where CN would ring,
    then CN steps, with the boundary-flux leak sum counting each step at its
    own length."""
    points = spec.points()
    n = spec.n_points
    h = initial.h
    nu = params.log_drift
    diffusion = 0.5 * params.sigma * params.sigma
    n_steps = spec.n_steps(t)
    dt = t / n_steps
    lower, diag, upper = operator_diagonals(nu, diffusion, h, n)
    lhs = factor(-0.5 * dt * lower[1:], 1.0 - 0.5 * dt * diag, -0.5 * dt * upper[:-1])

    adv = 0.5 * nu
    dif_h = diffusion / h
    p = initial.weights.copy()
    mass0 = float(np.sum(p)) * h
    leak = 0.0
    # Two implicit half-steps first where CN would flip the sign of the
    # grid's highest-frequency mode: 1 + 2 dt D / h^2 > 2.
    if 1.0 + 2.0 * dt * diffusion / (h * h) > 2.0:
        steps = [(0.5 * dt, 1.0)] * 2 + [(dt, 2.0)] * (n_steps - 1)
    else:
        steps = [(dt, 2.0)] * n_steps
    for step, scale in steps:
        p_next = lhs.solve(p, scale)
        if scale == 2.0:
            p_next -= p
        mid0 = 0.5 * (p[0] + p_next[0])
        mid1 = 0.5 * (p[1] + p_next[1])
        midm = 0.5 * (p[-2] + p_next[-2])
        midn = 0.5 * (p[-1] + p_next[-1])
        flux_lo = -adv * (mid0 + mid1) + dif_h * (mid1 - mid0)
        flux_hi = -adv * (midm + midn) + dif_h * (midn - midm)
        leak += (abs(flux_lo) + abs(flux_hi)) * step
        if leak > _LEAK_TOL * mass0:
            raise MassLeak("density reached the grid boundary during evolution")
        p = p_next
    return _finalize_weights(points, p).weights


def reference_pde(params, opt, grid, factor=BandedSolve):
    """pde_price's own loops: the undiscounted put W on the log-forward grid,
    identity end rows that keep the payoff's end values, two implicit
    half-steps where CN would ring, then CN; a call added by replication.
    Returns the premium and the last CN step's scaled defect."""
    y = grid.points()
    n = grid.n_points
    h = float(y[1] - y[0])
    t = opt.expiry
    y0 = log_coordinate(params.u0) + (params.drift_d - params.drift_f) * t
    n_steps = grid.n_steps(t)
    dtau = t / n_steps
    lower_c, diag_c, upper_c = pde_stencil(params.sigma, h)
    theta = 0.5 * dtau
    lhs_lower = np.full(n - 1, -theta * lower_c)
    lhs_diag = np.full(n, 1.0 - theta * diag_c)
    lhs_upper = np.full(n - 1, -theta * upper_c)
    lhs_lower[-1] = lhs_upper[0] = 0.0
    lhs_diag[0] = lhs_diag[-1] = 1.0
    lhs = factor(lhs_lower, lhs_diag, lhs_upper)

    values = np.maximum(opt.strike - np.exp(y), 0.0)
    ends = values[[0, -1]]
    residual = 0.0
    # Two implicit half-steps first where CN would flip the sign of the
    # grid's highest-frequency mode.
    split = lhs_diag[1] - lhs_lower[0] - lhs_upper[1] > 2.0
    for _ in range(2 if split else 0):
        values = lhs.solve(values, 1.0)
    for _ in range(2 if split else 1, n_steps + 1):
        # x' = A^-1 (I + dtau/2 L) x = 2 A^-1 x - x.
        new_values = lhs.solve(values, 2.0) - values
        if n_steps > 1:  # a one-step solve reports no defect
            residual = last_step_defect(values, new_values, dtau, params.sigma, h)
        values = new_values
    # The end values solve the equation: the march leaves them where they
    # began, up to the solves' rounding.
    assert np.allclose(values[[0, -1]], ends, rtol=0.0, atol=PREMIUM_RTOL * opt.strike)
    return read_premium(params, opt, y, values), residual


def pde_stencil(sigma, h):
    """The loops' interior stencil (l, d, u) of (sigma^2/2)(d_yy - d_y), with
    couplings in the ratio e^h, so that 1 and e^y solve it on the grid."""
    diffusion = 0.5 * sigma * sigma
    tail = math.exp(-h)
    lower_c = 2.0 * diffusion / (h * h) / (1.0 + tail)
    upper_c = lower_c * tail
    return lower_c, -(lower_c + upper_c), upper_c


def last_step_defect(values, new_values, dtau, sigma, h):
    """The scaled defect of a CN step from ``values`` to ``new_values`` on the
    interior of the nodes given."""
    lower_c, diag_c, upper_c = pde_stencil(sigma, h)
    mid = 0.5 * (values + new_values)
    defect = (new_values - values)[1:-1] / dtau - (
        lower_c * mid[:-2] + diag_c * mid[1:-1] + upper_c * mid[2:]
    )
    return float(np.max(np.abs(defect))) / (1.0 + float(np.max(np.abs(mid))))


def read_node(y, y0):
    """The first of the four nodes nearest y0 (of all three on three points)."""
    return max(0, min(int(np.searchsorted(y, y0)) - 2, y.size - 4))


def read_premium(params, opt, y, values):
    """The premium off the Lagrange cubic through the nodes nearest the log
    forward, discounted; a call by replication."""
    t = opt.expiry
    y0 = log_coordinate(params.u0) + (params.drift_d - params.drift_f) * t
    j = read_node(y, y0)
    near = y[j : j + 4]
    weights = [np.prod((y0 - near[near != yk]) / (yk - near[near != yk])) for yk in near]
    disc_d = math.exp(-params.drift_d * t)
    premium = disc_d * float(np.dot(weights, values[j : j + 4]))
    if opt.kind == "call":
        premium += params.u0 * math.exp(-params.drift_f * t) - opt.strike * disc_d
    return premium


def smooth_length(n):
    """The smallest length of at least n with no prime factor but 2, 3 and 5."""
    for m in itertools.count(n):
        k = m
        for prime in (2, 3, 5):
            while k % prime == 0:
                k //= prime
        if k == 1:
            return m


def transform_evolve(initial, params, t, spec):
    """evolve_density's transforms on the loop's own operator: the density
    zero-padded to a 2,3,5-smooth length of at least 2n, rfft, the library's
    Crank-Nicolson factor per Fourier mode, irfft, and the first n entries."""
    n = spec.n_points
    h = initial.h
    nu = params.log_drift
    diffusion = 0.5 * params.sigma * params.sigma
    n_steps = spec.n_steps(t)
    lower, diag, upper = operator_diagonals(nu, diffusion, h, n)
    m = smooth_length(2 * n)
    # The interior stencil's eigenvalue l e^{-i theta} + d + u e^{i theta},
    # written without the cancellation of its terms.
    adv = 0.5 * nu / h
    dif = diffusion / (h * h)
    theta = (2.0 * math.pi / m) * np.arange(m // 2 + 1)
    lam = -4.0 * dif * np.sin(0.5 * theta) ** 2 - 2j * adv * np.sin(theta)
    factor = _crank_nicolson_factor(lam, (lower[1], diag[1], upper[1]), t / n_steps, n_steps)
    p = np.fft.irfft(np.fft.rfft(initial.weights, m) * factor, m)[:n]
    return _finalize_weights(spec.points(), p).weights


def transform_pde(params, opt, grid):
    """pde_price's transforms on the loops' own stencil and read: the end
    values' part Phi = a + b e^(y - y_max) subtracted, the rest scaled by
    e^((y0 - y)/2) (exponent clipped to +-700), one DST-I as an rfft of its
    odd extension, the library's Crank-Nicolson factor per sine mode, the
    inverse, and the scale undone.  Returns the premium and the last CN
    step's scaled defect on the interior nodes around the read."""
    y = grid.points()
    n = grid.n_points
    h = float(y[1] - y[0])
    t = opt.expiry
    y0 = log_coordinate(params.u0) + (params.drift_d - params.drift_f) * t
    n_steps = grid.n_steps(t)
    dtau = t / n_steps
    stencil = pde_stencil(params.sigma, h)
    payoff = np.maximum(opt.strike - np.exp(y), 0.0)
    phi = payoff[0] * np.expm1(y - y[-1]) / math.expm1(y[0] - y[-1])
    scale = np.exp(np.clip(0.5 * (y0 - y), -700.0, 700.0))
    z = (payoff - phi) * scale
    spectrum = np.fft.rfft(np.concatenate((z, -z[-2:0:-1])))
    # The symmetric stencil's eigenvalue d + 2 sqrt(l u) cos(theta), with
    # sqrt(l u) = l e^(-h/2), written without the cancellation of its terms.
    lower_c = stencil[0]
    theta = (math.pi / (n - 1)) * np.arange(n)
    lam = -lower_c * math.expm1(-0.5 * h) ** 2 - 4.0 * (
        lower_c * math.exp(-0.5 * h)
    ) * np.sin(0.5 * theta) ** 2

    def after(k):
        factor = _crank_nicolson_factor(lam, stencil, dtau, k)
        return np.fft.irfft(spectrum * factor, 2 * (n - 1))[:n] / scale + phi

    values = after(n_steps)
    residual = 0.0
    if n_steps > 1:  # a one-step solve reports no defect
        j = read_node(y, y0)
        rows = slice(max(0, j - 1), j + 5)
        residual = last_step_defect(after(n_steps - 1)[rows], values[rows], dtau, params.sigma, h)
    return read_premium(params, opt, y, values), residual


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
        premium, residual = transform_pde(market, opt, grid)
        assert same_bits(result.premium, premium)
        assert same_bits(result.diagnostics["residual"], residual)

    @pytest.mark.parametrize("case, kind, strike", PDE_RUNS)
    def test_matches_solve_banded_loop(self, case, kind, strike):
        market, opt, grid = pde_case(case, kind, strike)
        result = pde_price(market, opt, grid)
        premium, residual = reference_pde(market, opt, grid)
        assert result.premium == pytest.approx(premium, rel=PREMIUM_RTOL, abs=0.0)
        assert result.diagnostics["residual"] < RESIDUAL_MAX
        assert residual < RESIDUAL_MAX

    @pytest.mark.parametrize("kind", ["call", "put"])
    @pytest.mark.parametrize("n_points", [3, 4])
    @pytest.mark.parametrize("n_time_steps", [1, 2, 400])
    def test_small_grids_bitwise_equal_to_reference_loop(self, n_points, n_time_steps, kind):
        market, opt, grid = small_grid_pde(n_points, n_time_steps, kind)
        result = pde_price(market, opt, grid)
        premium, residual = transform_pde(market, opt, grid)
        assert same_bits(result.premium, premium)
        assert same_bits(result.diagnostics["residual"], residual)

    def test_one_step_has_no_crank_nicolson_residual(self):
        opt = OptionSpec("call", 1.1, 0.7)
        result = pde_price(MARKET, opt, PDE_CASES["one_step"](opt))
        assert result.diagnostics["residual"] == 0.0


def point_mass_run(n_points, n_steps):
    """A point mass evolved by n_steps steps of the default grid's 0.7/1000,
    short enough for Crank-Nicolson to keep it non-negative."""
    spec = default_grid(MARKET, 0.7, n_points=n_points, n_time_steps=1000)
    t = n_steps * spec.dt_step
    return point_mass_density(spec.points(), math.log(MARKET.u0)), MARKET, t, spec


def small_grid_run(n_points, n_time_steps):
    # The central node or two carry all the mass, so the support check passes;
    # a tiny sigma keeps the boundary flux under the leak tolerance.
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
        # Spot near the top edge of a narrow grid: both loops hit the leak
        # bound during the run.
        spec = FPGridSpec(-1.0, 1.0, 201, dt_step=1e-3)
        args = (point_mass_density(spec.points(), 0.26), MARKET, 5.0, spec)
        with pytest.raises(MassLeak):
            reference_evolve(*args)
        with pytest.raises(MassLeak):
            evolve_density(*args)


class TestCrankNicolsonFactor:
    # At dt 0.5 the eigenvalue -4 puts x = lam dt/2 at -1 exactly: g = 0, and
    # atanh x is infinite.  The stencil (1, -2, 1) takes no split; the
    # stencil (100, -200, 100) splits the first step.
    LAM = np.array([-4.0, -1.0, -0.5 - 0.25j])

    @pytest.mark.parametrize(
        "stencil, n_steps, g_zero_mode",
        [((1.0, -2.0, 1.0), 3, 0.0), ((100.0, -200.0, 100.0), 3, 0.0),
         ((100.0, -200.0, 100.0), 1, 0.25)],
        ids=["no_split", "split", "split_one_step"],
    )
    def test_g_zero_mode_raises_no_floating_point_error(self, stencil, n_steps, g_zero_mode):
        with np.errstate(all="raise"):
            factor = _crank_nicolson_factor(self.LAM, stencil, 0.5, n_steps)
        # g^k is 0 for k >= 1; two implicit half-steps alone give 1/(1 - x)^2.
        assert factor[0] == g_zero_mode
        # Every other mode keeps the bits of e^(2k atanh x).
        x = 0.25 * self.LAM[1:].astype(complex)
        split = stencil[0] == 100.0
        k = n_steps - 1 if split else n_steps
        power = np.exp(2.0 * k * np.arctanh(x)) if k else 1.0
        expected = power / (1.0 - x) ** 2 if split else power
        assert same_bits(factor[1:].view(np.float64), expected.view(np.float64))
