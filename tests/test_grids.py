import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropic_fx import (
    DensityGrid,
    DomainError,
    GridMismatch,
    density_to_csv,
    gaussian_density,
    l1_distance,
    require_same_grid,
    same_grid,
    uniform_density,
)

from entropic_fx.grids import SPACING_RTOL

from conftest import read_density_csv


def grid_points(n=101, lo=-1.0, hi=1.0):
    return np.linspace(lo, hi, n)


class TestDensityGridConstruction:
    def test_valid_grid_accepted(self):
        g = DensityGrid(grid_points(), np.ones(101))
        assert g.n == 101
        assert g.h == pytest.approx(0.02, rel=1e-12)

    def test_points_must_be_1d(self):
        with pytest.raises(DomainError):
            DensityGrid(np.ones((2, 2)), np.ones((2, 2)))

    def test_needs_at_least_two_points(self):
        with pytest.raises(DomainError):
            DensityGrid(np.array([0.0]), np.array([1.0]))

    def test_rejects_non_finite_points(self):
        pts = grid_points()
        bad = pts.copy()
        bad[3] = np.nan
        with pytest.raises(DomainError):
            DensityGrid(bad, np.ones(101))

    def test_rejects_non_finite_weights(self):
        w = np.ones(101)
        w[7] = np.inf
        with pytest.raises(DomainError):
            DensityGrid(grid_points(), w)

    def test_rejects_length_mismatch(self):
        with pytest.raises(DomainError):
            DensityGrid(grid_points(), np.ones(100))

    def test_rejects_decreasing_points(self):
        with pytest.raises(DomainError):
            DensityGrid(grid_points()[::-1].copy(), np.ones(101))

    def test_rejects_nonuniform_spacing(self):
        pts = grid_points().copy()
        pts[50] += 1e-3
        with pytest.raises(DomainError):
            DensityGrid(pts, np.ones(101))

    def test_rejects_negative_weights(self):
        w = np.ones(101)
        w[0] = -1e-6
        with pytest.raises(DomainError):
            DensityGrid(grid_points(), w)


class TestMassAndNormalize:
    def test_uniform_density_has_unit_mass(self):
        g = uniform_density(grid_points())
        assert g.mass() == pytest.approx(1.0, abs=1e-15)

    def test_normalize_rescales_to_unit_mass(self):
        g = DensityGrid(grid_points(), np.full(101, 3.7))
        assert g.normalize().mass() == pytest.approx(1.0, abs=1e-15)

    def test_normalize_zero_mass_raises(self):
        g = DensityGrid(grid_points(), np.zeros(101))
        with pytest.raises(DomainError):
            g.normalize()

    @given(
        mean=st.floats(min_value=-0.5, max_value=0.5),
        var=st.floats(min_value=1e-3, max_value=0.05),
    )
    @settings(max_examples=50, deadline=None)
    def test_gaussian_density_moments(self, mean, var):
        # Grid covers many standard deviations, so trapezoid moments are
        # accurate far beyond these tolerances.
        pts = np.linspace(mean - 10.0 * np.sqrt(var), mean + 10.0 * np.sqrt(var), 2001)
        g = gaussian_density(pts, mean, var)
        assert g.mass() == pytest.approx(1.0, abs=1e-13)
        assert g.mean() == pytest.approx(mean, abs=1e-9)
        assert g.variance() == pytest.approx(var, rel=1e-6)

    def test_gaussian_density_rejects_bad_variance(self):
        with pytest.raises(DomainError):
            gaussian_density(grid_points(), 0.0, 0.0)

    def test_expectation_of_constant(self):
        g = uniform_density(grid_points())
        assert g.expectation(np.full(101, 2.5)) == pytest.approx(2.5, abs=1e-12)

    def test_expectation_rejects_wrong_shape(self):
        g = uniform_density(grid_points())
        with pytest.raises(GridMismatch):
            g.expectation(np.ones(100))


class TestGridComparison:
    def test_same_grid_true_for_identical(self):
        a = uniform_density(grid_points())
        b = uniform_density(grid_points())
        assert same_grid(a, b)

    def test_same_grid_false_for_different_n(self):
        a = uniform_density(grid_points(101))
        b = uniform_density(grid_points(201))
        assert not same_grid(a, b)

    def test_same_grid_false_for_shifted_points(self):
        a = uniform_density(grid_points())
        b = uniform_density(grid_points() + 0.1)
        assert not same_grid(a, b)

    def test_require_same_grid_raises(self):
        a = uniform_density(grid_points(101))
        b = uniform_density(grid_points(51))
        with pytest.raises(GridMismatch):
            require_same_grid(a, b)

    def test_l1_distance_zero_for_identical(self):
        a = gaussian_density(grid_points(2001, -1, 1), 0.0, 0.01)
        assert l1_distance(a, a) == 0.0

    def test_l1_distance_symmetric(self):
        pts = grid_points(2001, -1, 1)
        a = gaussian_density(pts, 0.0, 0.01)
        b = gaussian_density(pts, 0.1, 0.02)
        assert l1_distance(a, b) == l1_distance(b, a)

    @given(
        x_min=st.floats(min_value=-100.0, max_value=100.0),
        width=st.floats(min_value=1e-2, max_value=100.0),
        n=st.integers(min_value=2, max_value=2000),
    )
    @settings(max_examples=100, deadline=None)
    def test_grid_is_its_three_numbers(self, x_min, width, n):
        # A grid reads back as np.linspace of its ends, so a linspace array
        # comes back bit for bit, through normalize() too.  Two grids are one
        # when n agrees and both ends agree to SPACING_RTOL of the largest.
        pts = np.linspace(x_min, x_min + width, n)
        g = DensityGrid(pts, np.ones(n))
        assert g.points.tobytes() == pts.tobytes()
        assert g.normalize().points.tobytes() == pts.tobytes()

        x_max = float(pts[-1])
        tol = SPACING_RTOL * max(1.0, abs(x_min), abs(x_max))

        def on(lo, hi, n=n):
            return uniform_density(np.linspace(lo, hi, n))
        near = on(x_min + 0.25 * tol, x_max - 0.25 * tol)
        moved = [on(x_min - 4.0 * tol, x_max), on(x_min, x_max + 4.0 * tol)]
        for other in [near, on(x_min, x_max, n + 1), *moved]:
            assert same_grid(g, other) == same_grid(other, g)
        assert same_grid(g, near)
        assert not any(same_grid(g, other) for other in moved)

    def test_l1_distance_grid_mismatch(self):
        a = uniform_density(grid_points(101))
        b = uniform_density(grid_points(51))
        with pytest.raises(GridMismatch):
            l1_distance(a, b)


class TestCsvRoundTrip:
    def test_round_trip_is_bitwise_exact(self):
        pts = grid_points(501, -0.3, 0.9)
        g = gaussian_density(pts, 0.3, 0.02)
        back = read_density_csv(density_to_csv(g))
        # 17 significant digits reproduce every double exactly.
        assert np.array_equal(back.points, g.points)
        assert np.array_equal(back.weights, g.weights)

    def test_header_line(self):
        g = uniform_density(grid_points(5))
        assert density_to_csv(g).splitlines()[0] == "x,p"

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=2, max_value=64),
    )
    @settings(max_examples=30, deadline=None)
    def test_round_trip_random_weights(self, seed, n):
        rng = np.random.default_rng(seed)
        pts = np.linspace(-2.0, 3.0, n)
        g = DensityGrid(pts, rng.uniform(0.0, 5.0, n))
        back = read_density_csv(density_to_csv(g))
        assert np.array_equal(back.weights, g.weights), (
            f"CSV round trip changed weights for seed={seed}, n={n}"
        )
