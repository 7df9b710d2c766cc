import math

import numpy as np
import pytest

from entropic_fx import (
    DensityGrid,
    DomainError,
    FPGridSpec,
    MarketParams,
    MassLeak,
    NumericalError,
    analytic_density,
    default_grid,
    evolve_density,
    gaussian_density,
    l1_distance,
    point_mass_density,
    transition_density,
    transition_pdf,
)
from entropic_fx import fokker_planck, pricing
from entropic_fx.grids import MAX_GRID_POINTS
from entropic_fx.fokker_planck import (
    _finalize_weights,
    _operator_diagonals,
    _TridiagonalLU,
)

from conftest import BandedSolve, same_bits


def flat_rates_market(sigma=0.2):
    # Equal rates: no rate differential, log-rate drift is -sigma^2/2.
    return MarketParams(u0=1.0, drift_d=0.0, drift_f=0.0, sigma=sigma)


class TestGridSpec:
    def test_points_span(self):
        spec = FPGridSpec(-1.0, 1.0, 5)
        assert np.array_equal(spec.points(), np.linspace(-1.0, 1.0, 5))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(x_min=1.0, x_max=-1.0),
            dict(x_min=0.0, x_max=0.0),
            dict(x_min=-1.0, x_max=1.0, n_points=2),
            dict(x_min=-1.0, x_max=1.0, dt_step=0.0),
            dict(x_min=-math.inf, x_max=1.0),
            dict(x_min=-1.0, x_max=1.0, n_points=MAX_GRID_POINTS + 1),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            FPGridSpec(**kwargs)

    def test_step_count_is_the_count_asked_for(self):
        # dt_step = t / N gives back N steps at every N; t / dt_step then
        # rounds a few ulps above N, which from N ~ 18,000 up is more than
        # an absolute slack of 1e-12 forgives.
        rng = np.random.default_rng(19)
        cases = [(5.0, 18_393), (5.0, 18_869), (1.0, 23_294)] + list(zip(
            rng.uniform(0.01, 10.0, 20_000).tolist(),
            rng.integers(1, 200_000, 20_000).tolist(),
        ))
        wrong = [(t, n) for t, n in cases if FPGridSpec(-1.0, 1.0, 3, t / n).n_steps(t) != n]
        assert wrong == []

    @pytest.mark.parametrize(
        "t, dt_step, n_steps", [(1.0, 0.3, 4), (1.0, 0.25, 4), (0.5, 2.0, 1)]
    )
    def test_step_count_caps_the_step(self, t, dt_step, n_steps):
        assert FPGridSpec(-1.0, 1.0, 3, dt_step).n_steps(t) == n_steps

    def test_largest_grid_is_accepted(self):
        assert FPGridSpec(-1.0, 1.0, MAX_GRID_POINTS).n_points == MAX_GRID_POINTS

    def test_default_grid_centering(self):
        market = MarketParams(u0=1.0, drift_d=0.05, drift_f=0.02, sigma=0.2)
        spec = default_grid(market, 1.0)
        center = market.log_drift * 1.0
        assert 0.5 * (spec.x_min + spec.x_max) == pytest.approx(center, abs=1e-12)
        assert spec.x_max - spec.x_min == pytest.approx(20.0 * 0.2, rel=1e-12)
        assert spec.n_points == 2001

    def test_default_grid_rejects_bad_t(self):
        market = MarketParams(u0=1.0, drift_d=0.05, drift_f=0.02, sigma=0.2)
        with pytest.raises(DomainError):
            default_grid(market, 0.0)

    @pytest.mark.parametrize("n_time_steps", [0, -3])
    def test_default_grid_needs_a_time_step(self, n_time_steps):
        market = MarketParams(u0=1.0, drift_d=0.05, drift_f=0.02, sigma=0.2)
        with pytest.raises(DomainError, match="n_time_steps"):
            default_grid(market, 1.0, n_time_steps=n_time_steps)


class TestInitialDensities:
    def test_point_mass_is_narrow_and_normalized(self):
        pts = np.linspace(-1.0, 1.0, 2001)
        g = point_mass_density(pts, 0.0)
        assert g.mass() == pytest.approx(1.0, abs=1e-12)
        h = pts[1] - pts[0]
        assert g.variance() == pytest.approx((3.0 * h) ** 2, rel=1e-6)

    def test_point_mass_center_outside_grid(self):
        pts = np.linspace(-1.0, 1.0, 101)
        with pytest.raises(DomainError):
            point_mass_density(pts, 2.0)

    def test_analytic_density_matches_transition_pdf(self):
        # Same Gaussian through two code paths: the density-grid helper and
        # the transition-law pdf.
        market = MarketParams(u0=1.3, drift_d=0.05, drift_f=0.02, sigma=0.2)
        t = 0.7
        spec = default_grid(market, t)
        pts = spec.points()
        g = analytic_density(market, t, pts)
        td = transition_density(market, t)
        pdf = transition_pdf(td, pts - math.log(market.u0))
        assert float(np.max(np.abs(g.weights - pdf))) < 1e-12


class TestDiffusionAgainstClosedForm:
    def test_flat_rates_variance_additivity(self):
        # Equal rates, sigma = 0.2: an initial N(0, 1e-4) drifts to
        # -sigma^2/2 = -0.02 and picks up variance sigma^2 t = 0.04,
        # landing on N(-0.02, 0.0401) to L1 < 1e-3 at 2001 points.
        market = flat_rates_market(0.2)
        spec = FPGridSpec(-0.02 - 1.5, -0.02 + 1.5, 2001, dt_step=1e-3)
        pts = spec.points()
        initial = gaussian_density(pts, 0.0, 1e-4)
        evolved = evolve_density(initial, market, 1.0, spec)
        target = gaussian_density(pts, -0.02, 1e-4 + market.sigma**2 * 1.0)
        assert l1_distance(evolved, target) < 1e-3
        assert evolved.mass() == pytest.approx(1.0, abs=1e-10)
        assert evolved.mean() == pytest.approx(-0.02, abs=1e-9)
        assert evolved.variance() == pytest.approx(0.0401, rel=1e-3)

    def test_short_time_is_near_identity(self):
        market = flat_rates_market(0.2)
        spec = FPGridSpec(-1.0, 1.0, 2001, dt_step=1e-6)
        pts = spec.points()
        initial = gaussian_density(pts, 0.0, 1e-2)
        evolved = evolve_density(initial, market, 1e-6, spec)
        assert l1_distance(evolved, initial) < 1e-5

    def test_advection_translates_the_density(self):
        # sigma = 1e-6 makes diffusion negligible: the density slides by
        # the rate differential per unit time with no visible spreading.
        market = MarketParams(u0=1.0, drift_d=0.1, drift_f=0.0, sigma=1e-6)
        nu = market.log_drift
        spec = FPGridSpec(-0.3, 0.5, 2001, dt_step=1e-3)
        pts = spec.points()
        initial = gaussian_density(pts, 0.0, 4e-4)
        t = 1.0
        evolved = evolve_density(initial, market, t, spec)
        translated = gaussian_density(pts, nu * t, 4e-4)
        assert evolved.mean() == pytest.approx(initial.mean() + nu * t, abs=1e-9)
        assert abs(evolved.variance() - initial.variance()) < 1e-9
        assert l1_distance(evolved, translated) < 1e-3

    def test_moment_drift_rates(self):
        # Over a unit horizon the mean moves at the log-rate drift and the
        # variance grows at sigma^2, both to 1e-6 absolute.
        market = MarketParams(u0=1.0, drift_d=0.05, drift_f=0.02, sigma=0.2)
        nu = market.log_drift
        spec = FPGridSpec(nu - 1.6, nu + 1.6, 2001, dt_step=1e-3)
        pts = spec.points()
        initial = gaussian_density(pts, 0.0, 1e-4)
        evolved = evolve_density(initial, market, 1.0, spec)
        mean_rate = evolved.mean() - initial.mean()
        var_rate = evolved.variance() - initial.variance()
        assert mean_rate == pytest.approx(nu, abs=1e-6)
        assert var_rate == pytest.approx(market.sigma**2, abs=1e-6)

    def test_point_mass_start_matches_transition_law(self):
        market = MarketParams(u0=1.0, drift_d=0.05, drift_f=0.02, sigma=0.2)
        t = 1.0
        spec = default_grid(market, t, n_points=2001, n_time_steps=1000)
        pts = spec.points()
        initial = point_mass_density(pts, 0.0)
        evolved = evolve_density(initial, market, t, spec)
        exact = analytic_density(market, t, pts)
        assert l1_distance(evolved, exact) < 1e-3

    def test_mass_conserved_through_long_run(self):
        market = flat_rates_market(0.2)
        spec = FPGridSpec(-3.0, 3.0, 1501, dt_step=1e-3)
        pts = spec.points()
        initial = gaussian_density(pts, 0.0, 1e-3)
        evolved = evolve_density(initial, market, 2.0, spec)
        assert abs(evolved.mass() - initial.mass()) < 1e-10


class TestScaleInvariance:
    def test_evolution_commutes_with_log_shift(self):
        # Rescaling the rate by c shifts log space by ln c; evolving a
        # shifted copy on a shifted grid gives the shifted result.
        market = MarketParams(u0=1.0, drift_d=0.05, drift_f=0.02, sigma=0.2)
        shift = math.log(5.0)
        spec_a = FPGridSpec(-2.0, 2.0, 1201, dt_step=1e-3)
        spec_b = FPGridSpec(-2.0 + shift, 2.0 + shift, 1201, dt_step=1e-3)
        a0 = gaussian_density(spec_a.points(), 0.0, 1e-3)
        b0 = gaussian_density(spec_b.points(), shift, 1e-3)
        t = 0.5
        a1 = evolve_density(a0, market, t, spec_a)
        b1 = evolve_density(b0, market.with_spot(5.0), t, spec_b)
        assert float(np.max(np.abs(a1.weights - b1.weights))) < 1e-8


class TestFailureModes:
    def test_initial_mass_near_edge_raises(self):
        market = flat_rates_market(0.2)
        spec = FPGridSpec(-1.0, 1.0, 1001, dt_step=1e-3)
        pts = spec.points()
        initial = gaussian_density(pts, 0.85, 1e-4)  # inside the outer 10%
        with pytest.raises(MassLeak):
            evolve_density(initial, market, 0.5, spec)

    def test_leak_during_run_raises(self):
        # A grid only two sigma wide cannot contain a unit-time diffusion.
        market = flat_rates_market(0.5)
        spec = FPGridSpec(-0.5, 0.5, 501, dt_step=1e-3)
        pts = spec.points()
        initial = gaussian_density(pts, 0.0, 1e-4)
        with pytest.raises(MassLeak):
            evolve_density(initial, market, 1.0, spec)

    def test_grid_mismatch_rejected(self):
        market = flat_rates_market(0.2)
        spec = FPGridSpec(-1.0, 1.0, 1001, dt_step=1e-3)
        other = gaussian_density(np.linspace(-2.0, 2.0, 1001), 0.0, 1e-3)
        with pytest.raises(DomainError):
            evolve_density(other, market, 1.0, spec)

    def test_bad_horizon_rejected(self):
        market = flat_rates_market(0.2)
        spec = FPGridSpec(-1.0, 1.0, 1001, dt_step=1e-3)
        initial = gaussian_density(spec.points(), 0.0, 1e-3)
        with pytest.raises(DomainError):
            evolve_density(initial, market, 0.0, spec)


class TestOperatorProperties:
    def test_column_sums_vanish(self):
        # Zero column sums of the generator are discrete mass conservation.
        lower, diag, upper = _operator_diagonals(nu=0.017, diffusion=0.02, h=1e-3, n=50)
        col = diag.copy()
        col[:-1] += lower[1:]
        col[1:] += upper[:-1]
        assert float(np.max(np.abs(col))) < 1e-10 / 1e-3

    def test_finalize_accepts_clean_weights(self):
        pts = np.linspace(0.0, 1.0, 5)
        p = np.array([0.1, 0.2, 0.4, 0.2, 0.1])
        g = _finalize_weights(pts, p)
        assert np.array_equal(g.weights, p)

    def test_finalize_clips_roundoff_negatives(self):
        pts = np.linspace(0.0, 1.0, 5)
        p = np.array([-5e-13, 1.0, 1.0, 1.0, 0.5])
        g = _finalize_weights(pts, p)
        assert g.weights[0] == 0.0
        assert g.mass() == pytest.approx(1.0, abs=1e-12)

    def test_finalize_rejects_genuine_undershoot(self):
        pts = np.linspace(0.0, 1.0, 5)
        p = np.array([-1e-6, 1.0, 1.0, 1.0, 0.5])
        with pytest.raises(NumericalError):
            _finalize_weights(pts, p)


# Normwise agreement of _TridiagonalLU with solve_banded on the matrices
# below; each is diagonally dominant, so both solves are accurate to a few
# ulps of the solution's largest entry.
SOLVE_RTOL = 1e-13
# Agreement of whole solver runs with the per-step solve_banded ones: the
# premium relative, the density in L1.  Crank-Nicolson carries the two
# solves' rounding differences along (up to ~5e-11 on 8x grids).
RUN_RTOL = 1e-9


def _constant_interior(rng, n):
    """Bands of a diagonally dominant tridiagonal matrix with one random
    stencil on its interior rows and random first and last rows."""
    l, u = rng.uniform(-1.0, 1.0, 2)
    d = rng.choice([-1.0, 1.0]) * rng.uniform(2.0, 4.0)
    lower, diag, upper = np.full(n - 1, l), np.full(n, d), np.full(n - 1, u)
    upper[0], lower[-1] = rng.uniform(-1.0, 1.0, 2)
    diag[0], diag[-1] = rng.choice([-1.0, 1.0], 2) * rng.uniform(1.5, 4.0, 2)
    return lower, diag, upper


def _slowly_contracting(rng, n):
    """Bands with an interior stencil whose recurrences contract slowly,
    |p| and |u/q| in [0.9, 0.95] (the 8x Fokker-Planck grid has ~0.925), so
    the carries cross many blocks and the Woodbury rows reach far in.  The
    end rows drop the missing neighbour's coupling, as the operators'
    zero-flux rows do, so the matrix stays diagonally dominant.  Closer to
    1 the matrix nears singular, and the two solves' rounding parts by
    more than SOLVE_RTOL."""
    p, r = rng.choice([-1.0, 1.0]) * rng.uniform(0.9, 0.95, 2)
    q = rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 4.0)
    l, u, d = p * q, r * q, q * (1.0 + p * r)
    lower, diag, upper = np.full(n - 1, l), np.full(n, d), np.full(n - 1, u)
    upper[0], lower[-1] = rng.uniform(0.5, 1.0, 2) * (u, l)
    diag[0], diag[-1] = d - math.copysign(l, d), d - math.copysign(u, d)
    return lower, diag, upper


def _close(got, want, rtol):
    return np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


_MARKET = MarketParams.risk_neutral(1.3, 0.05, 0.02, 0.25)
_FP_T = 0.7
_FP_SPEC = default_grid(_MARKET, _FP_T, n_points=801, n_time_steps=300)
_OPTIONS = (pricing.OptionSpec("call", 1.1, 0.7), pricing.OptionSpec("put", 1.6, 2.0))


def _grid_solver_runs():
    """Fresh evolve_density and pde_price calls: the FP run, then a call and a put."""
    initial = point_mass_density(_FP_SPEC.points(), math.log(_MARKET.u0))
    return (
        lambda: evolve_density(initial, _MARKET, _FP_T, _FP_SPEC).weights,
        *(lambda opt=opt: pricing.pde_price(_MARKET, opt) for opt in _OPTIONS),
    )


def _fp_banded_lhs():
    """I - dt/2 L of the FP run, assembled as the per-step solve_banded code did."""
    n = _FP_SPEC.n_points
    points = _FP_SPEC.points()
    h = (points[-1] - points[0]) / (n - 1)
    dt = _FP_T / max(1, math.ceil(_FP_T / _FP_SPEC.dt_step - 1e-12))
    lower, diag, upper = _operator_diagonals(
        _MARKET.log_drift, 0.5 * _MARKET.sigma * _MARKET.sigma, h, n
    )
    ab = np.zeros((3, n))
    ab[0, 1:] = -0.5 * dt * upper[:-1]
    ab[1, :] = 1.0 - 0.5 * dt * diag
    ab[2, :-1] = -0.5 * dt * lower[1:]
    return ab


def _pde_banded_lhs(opt):
    """I - dtau/2 L of pde_price on its default grid, assembled as the
    per-step solve_banded code would: L = (sigma^2/2)(d_yy - d_y) on the
    interior rows of the log-forward grid, its couplings in the ratio e^h,
    and identity end rows."""
    grid = pricing.default_pde_grid(_MARKET, opt)
    y, n = grid.points(), grid.n_points
    h = float(y[1] - y[0])
    dtau = opt.expiry / max(1, math.ceil(opt.expiry / grid.dt_step - 1e-12))
    diffusion = 0.5 * _MARKET.sigma * _MARKET.sigma
    tail = math.exp(-h)
    lower_c = 2.0 * diffusion / (h * h) / (1.0 + tail)
    upper_c = lower_c * tail
    diag_c = -(lower_c + upper_c)
    theta_dt = 0.5 * dtau
    ab = np.zeros((3, n))
    ab[0, 2:] = -theta_dt * upper_c
    ab[1, 1:-1] = 1.0 - theta_dt * diag_c
    ab[2, :-2] = -theta_dt * lower_c
    ab[1, 0] = 1.0
    ab[1, -1] = 1.0
    return ab


def _patch_stepper(monkeypatch, cls):
    monkeypatch.setattr(fokker_planck, "_TridiagonalLU", cls)


class TestTridiagonalLU:
    @pytest.mark.parametrize(
        "n, stencil",
        [
            *(pytest.param(n, _constant_interior, id=str(n)) for n in (3, 4, 17, 64, 65, 1601)),
            *(
                pytest.param(n, stencil, id=f"{prefix}{n}")
                for n in (4097, 16001, 100_001)
                for prefix, stencil in (("", _constant_interior), ("slow-", _slowly_contracting))
            ),
        ],
    )
    def test_matches_solve_banded(self, n, stencil):
        # 3 and 4 rows fill one block, 64 and 65 straddle a block edge,
        # 4097 and 16001 carry across blocks through a nested solve, and
        # 100001 splits its block products into row chunks.
        rng = np.random.default_rng(n)
        bands = stencil(rng, n)
        lu, ref = _TridiagonalLU(*bands), BandedSolve(*bands)
        for scale in (1.0, 2.0, -0.5):
            rhs = rng.standard_normal(n)
            got = lu.solve(rhs, scale)
            assert _close(got, ref.solve(rhs, scale), SOLVE_RTOL)
            assert np.all(rhs == rhs)  # not overwritten

    def test_solver_matrices_bitwise_equal_to_solve_banded(self, monkeypatch):
        # The bands each solver factors are, to the bit, those the per-step
        # solve_banded code assembled (ab[0, 0] and ab[2, -1] are unused), and
        # the factor solves them as solve_banded does.
        built = []

        class Recorder(BandedSolve):
            def __init__(self, *bands):
                super().__init__(*bands)
                built.append(self)

        _patch_stepper(monkeypatch, Recorder)
        for run in _grid_solver_runs():
            run()
        assert len(built) == 3
        expected = [_fp_banded_lhs(), *(_pde_banded_lhs(opt) for opt in _OPTIONS)]
        for ref, ab in zip(built, expected):
            assert same_bits(ref.ab[0, 1:], ab[0, 1:])
            assert same_bits(ref.ab[1], ab[1])
            assert same_bits(ref.ab[2, :-1], ab[2, :-1])
        rng = np.random.default_rng(3)
        for ref in built:
            lu = _TridiagonalLU(*ref.bands)
            rhs = rng.standard_normal(ref.bands[1].size)
            assert _close(lu.solve(rhs), ref.solve(rhs), SOLVE_RTOL)

    def test_solvers_match_per_step_solve_banded(self, monkeypatch):
        fast = [run() for run in _grid_solver_runs()]
        _patch_stepper(monkeypatch, BandedSolve)
        reference = [run() for run in _grid_solver_runs()]
        assert np.sum(np.abs(fast[0] - reference[0])) <= RUN_RTOL * np.sum(reference[0])
        for got, want in zip(fast[1:], reference[1:]):
            assert got.premium == pytest.approx(want.premium, rel=RUN_RTOL, abs=0.0)

    def test_one_factorization_per_solver_call(self, monkeypatch):
        factored = []

        class Counting(_TridiagonalLU):
            def __init__(self, *bands):
                factored.append(bands[1].size)
                super().__init__(*bands)

        _patch_stepper(monkeypatch, Counting)
        for run in _grid_solver_runs():
            before = len(factored)
            run()
            assert len(factored) == before + 1

    @pytest.mark.parametrize("band", [0, 1, 2])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_matrix_raises(self, band, bad):
        bands = [np.full(4, 0.5), np.full(5, 2.0), np.full(4, 0.5)]
        bands[band][1] = bad
        with pytest.raises(NumericalError):
            _TridiagonalLU(*bands)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rhs_raises(self, bad):
        lu = _TridiagonalLU(np.full(4, 0.5), np.full(5, 2.0), np.full(4, 0.5))
        rhs = np.ones(5)
        rhs[2] = bad
        # numpy reports the infinity times a zero of the Woodbury rows as an
        # invalid value before the solve raises.
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
            lu.solve(rhs)

    @pytest.mark.parametrize(
        "n, where",
        [
            *(pytest.param(1601, where, id=str(where)) for where in (0, 800, 1600)),
            # 16001 rows are 1001 blocks of 16 behind 15 zeros of padding, so
            # entry 0 shares the first block with the padding, and entries
            # 7985 and 8000 are the first and last of block 500.
            pytest.param(16001, 0, id="16001-padded-first-block"),
            pytest.param(16001, 7985, id="16001-block-first"),
            pytest.param(16001, 8000, id="16001-block-last"),
            pytest.param(16001, 16000, id="16001-last"),
        ],
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rhs_raises_anywhere(self, n, where, bad):
        # Far from both ends the Woodbury dot does not reach; the block-end
        # product sees every entry.
        lu = _TridiagonalLU(np.full(n - 1, -0.1), np.full(n, 3.0), np.full(n - 1, -0.1))
        rhs = np.ones(n)
        rhs[where] = bad
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="right-hand side"):
            lu.solve(rhs)

    def test_block_layout_of_the_nested_size(self):
        # The layout the ids of test_non_finite_rhs_raises_anywhere name.
        pair = _TridiagonalLU(np.full(16000, -0.1), np.full(16001, 3.0), np.full(16000, -0.1))._m
        assert pair.input.base.shape == (1001, 16)
        assert pair.input.size == 16001

    @pytest.mark.parametrize("n", [16_001, 100_001, 1_000_000])
    def test_products_stay_serial(self, monkeypatch, n):
        # Every block product of a solve goes through np.matmul a few rows
        # at a time, so none exceeds _SERIAL_PRODUCT multiply-adds, and
        # together the square ones cover every entry.  The Woodbury dot
        # (2 rows over H's support) stays below it too.
        lu = _TridiagonalLU(*_slowly_contracting(np.random.default_rng(n), n))
        shapes = []
        matmul = np.matmul

        def recording(a, b, **kwargs):
            shapes.append((*a.shape, b.shape[1]))
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", recording)
        lu.solve(np.ones(n))
        largest = max((rows * inner * cols for rows, inner, cols in shapes), default=0)
        assert max(largest, lu._h.size) <= fokker_planck._SERIAL_PRODUCT
        assert sum(rows * inner for rows, inner, cols in shapes if inner == cols) >= n

    def test_singular_matrix_raises(self):
        # Row 1 is all zeros.
        with pytest.raises(NumericalError):
            _TridiagonalLU(np.array([0.0, 1.0]), np.array([1.0, 0.0, 1.0]), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("n", [3, 4, 17])
    def test_singular_corner_rows_raise(self, n):
        # A contracting stencil, but the last diagonal entry makes det(A) = 0:
        # det(A) = diag[-1] * det(A[:-1, :-1]) - lower[-1] * upper[-1] * det(A[:-2, :-2]).
        lower, diag, upper = np.full(n - 1, 0.5), np.full(n, 3.0), np.full(n - 1, 0.5)
        diag[0], upper[0] = 1.0, 1.0
        dense = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
        diag[-1] = (
            lower[-1] * upper[-1] * np.linalg.det(dense[:-2, :-2]) / np.linalg.det(dense[:-1, :-1])
        )
        with pytest.raises(NumericalError, match="singular"):
            _TridiagonalLU(lower, diag, upper)

    def test_too_few_rows_raise(self):
        with pytest.raises(NumericalError, match="3 rows"):
            _TridiagonalLU(np.array([0.5]), np.array([2.0, 2.0]), np.array([0.5]))

    @pytest.mark.parametrize("band, row", [(0, 0), (1, 1), (1, 15), (2, 15)])
    def test_non_constant_interior_raises(self, band, row):
        bands = [np.full(16, 0.5), np.full(17, 2.0), np.full(16, 0.5)]
        bands[band][row] = np.nextafter(bands[band][row], 3.0)
        with pytest.raises(NumericalError, match="non-constant"):
            _TridiagonalLU(*bands)

    @pytest.mark.parametrize(
        "l, d, u",
        [(2.0, 1.0, 2.0), (3.0, 1.0, -0.1), (-0.1, 1.0, 3.0), (0.0, 0.0, 0.0)],
        ids=["complex_roots", "forward_grows", "backward_grows", "zero_stencil"],
    )
    def test_non_contracting_stencil_raises(self, l, d, u):
        bands = [np.full(16, l), np.full(17, d), np.full(16, u)]
        with pytest.raises(NumericalError, match="do not contract"):
            _TridiagonalLU(*bands)
