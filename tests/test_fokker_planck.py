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
from entropic_fx.grids import MAX_GRID_POINTS
from entropic_fx.fokker_planck import _finalize_weights

from conftest import operator_diagonals


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
        spec = FPGridSpec(-0.02 - 1.5, -0.02 + 1.5, 2001)
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
        spec = FPGridSpec(-1.0, 1.0, 2001)
        pts = spec.points()
        initial = gaussian_density(pts, 0.0, 1e-2)
        evolved = evolve_density(initial, market, 1e-6, spec)
        assert l1_distance(evolved, initial) < 1e-5

    def test_advection_translates_the_density(self):
        # sigma = 1e-6 makes diffusion negligible: the density slides by
        # the rate differential per unit time with no visible spreading.
        market = MarketParams(u0=1.0, drift_d=0.1, drift_f=0.0, sigma=1e-6)
        nu = market.log_drift
        spec = FPGridSpec(-0.3, 0.5, 2001)
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
        spec = FPGridSpec(nu - 1.6, nu + 1.6, 2001)
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
        spec = default_grid(market, t, n_points=2001)
        pts = spec.points()
        initial = point_mass_density(pts, 0.0)
        evolved = evolve_density(initial, market, t, spec)
        exact = analytic_density(market, t, pts)
        assert l1_distance(evolved, exact) < 1e-3

    def test_tiny_sigma_point_mass_evolves(self):
        # sigma = 1e-8 on the default grid peaks the density at 4e7, so its
        # round-off is far above 1e-12 in absolute terms, though not
        # relative to that peak.
        market = MarketParams(u0=1.3, drift_d=0.02, drift_f=0.02, sigma=1e-8)
        spec = default_grid(market, 1.0)
        pts = spec.points()
        evolved = evolve_density(point_mass_density(pts, math.log(1.3)), market, 1.0, spec)
        assert evolved.mass() == pytest.approx(1.0, abs=1e-10)
        assert l1_distance(evolved, analytic_density(market, 1.0, pts)) < 1e-3

    def test_mass_conserved_through_long_run(self):
        market = flat_rates_market(0.2)
        spec = FPGridSpec(-3.0, 3.0, 1501)
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
        spec_a = FPGridSpec(-2.0, 2.0, 1201)
        spec_b = FPGridSpec(-2.0 + shift, 2.0 + shift, 1201)
        a0 = gaussian_density(spec_a.points(), 0.0, 1e-3)
        b0 = gaussian_density(spec_b.points(), shift, 1e-3)
        t = 0.5
        a1 = evolve_density(a0, market, t, spec_a)
        b1 = evolve_density(b0, market.with_spot(5.0), t, spec_b)
        assert float(np.max(np.abs(a1.weights - b1.weights))) < 1e-8


class TestFailureModes:
    def test_initial_mass_near_edge_raises(self):
        market = flat_rates_market(0.2)
        spec = FPGridSpec(-1.0, 1.0, 1001)
        pts = spec.points()
        initial = gaussian_density(pts, 0.85, 1e-4)  # inside the outer 10%
        with pytest.raises(MassLeak):
            evolve_density(initial, market, 0.5, spec)

    def test_leak_during_run_raises(self):
        # A grid only two sigma wide cannot contain a unit-time diffusion.
        market = flat_rates_market(0.5)
        spec = FPGridSpec(-0.5, 0.5, 501)
        pts = spec.points()
        initial = gaussian_density(pts, 0.0, 1e-4)
        with pytest.raises(MassLeak):
            evolve_density(initial, market, 1.0, spec)

    def test_grid_mismatch_rejected(self):
        market = flat_rates_market(0.2)
        spec = FPGridSpec(-1.0, 1.0, 1001)
        other = gaussian_density(np.linspace(-2.0, 2.0, 1001), 0.0, 1e-3)
        with pytest.raises(DomainError):
            evolve_density(other, market, 1.0, spec)

    def test_bad_horizon_rejected(self):
        market = flat_rates_market(0.2)
        spec = FPGridSpec(-1.0, 1.0, 1001)
        initial = gaussian_density(spec.points(), 0.0, 1e-3)
        with pytest.raises(DomainError):
            evolve_density(initial, market, 0.0, spec)


class TestOperatorProperties:
    def test_column_sums_vanish(self):
        # Zero column sums of the generator are discrete mass conservation.
        lower, diag, upper = operator_diagonals(nu=0.017, diffusion=0.02, h=1e-3, n=50)
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
