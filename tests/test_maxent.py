import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropic_fx import (
    ConstraintSpec,
    DensityGrid,
    DomainError,
    FirstMoment,
    InfeasibleConstraints,
    MarketParams,
    NoConvergence,
    SecondCentralMoment,
    SupportViolation,
    alpha_from_entropic_time,
    beta_multiplier,
    gaussian_density,
    relative_entropy,
    solve_maxent,
    transition_density,
    transition_pdf,
    uniform_density,
)


def sigma_grid(variance, sigmas=10.0, h=1e-3):
    half = sigmas * math.sqrt(variance)
    n = int(round(2.0 * half / h)) + 1
    return np.linspace(-half, half, n)


class TestMultiplierIdentities:
    @given(
        sigma=st.floats(min_value=1e-4, max_value=10.0),
        dt=st.floats(min_value=1e-6, max_value=100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_alpha_round_trip(self, sigma, dt):
        alpha = alpha_from_entropic_time(sigma, dt)
        k = 1.0 / alpha
        direct = sigma * sigma * dt
        scale = max(1.0, abs(direct))
        assert abs(k - direct) <= 1e-15 * scale, (
            f"variance round trip off by {k - direct!r} at sigma={sigma}, dt={dt}"
        )

    @given(
        mu_d=st.floats(min_value=-0.5, max_value=0.5),
        mu_f=st.floats(min_value=-0.5, max_value=0.5),
        sigma=st.floats(min_value=1e-3, max_value=2.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_beta_matches_direct_formula(self, mu_d, mu_f, sigma):
        beta = beta_multiplier(mu_d, mu_f, sigma)
        direct = (mu_d - mu_f) / sigma**2 - 0.5
        scale = max(1.0, abs(direct))
        assert abs(beta - direct) <= 1e-15 * scale

    def test_alpha_point_values(self):
        # Unit vol over a unit step: variance 1, alpha 1.  A 20% vol over
        # one trading day: variance 0.04/252, alpha 6300.
        assert alpha_from_entropic_time(1.0, 1.0) == 1.0
        assert alpha_from_entropic_time(0.2, 1.0 / 252.0) == pytest.approx(
            6300.0, rel=1e-12
        )

    def test_beta_point_values(self):
        # Equal rates leave only the Ito term: beta is exactly -1/2.
        assert beta_multiplier(0.05, 0.05, 0.3) == -0.5
        # A rate gap of sigma^2/2 cancels the Ito term.
        assert abs(beta_multiplier(0.02, 0.0, 0.2)) < 1e-15
        # (0.05, 0.02, 0.2): 0.03/0.04 - 1/2 = 1/4.
        assert beta_multiplier(0.05, 0.02, 0.2) == pytest.approx(0.25, abs=1e-15)

    def test_alpha_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            alpha_from_entropic_time(0.0, 1.0)
        with pytest.raises(DomainError):
            alpha_from_entropic_time(0.2, 0.0)
        with pytest.raises(DomainError):
            alpha_from_entropic_time(0.2, math.inf)

    def test_beta_rejects_bad_sigma(self):
        with pytest.raises(DomainError):
            beta_multiplier(0.05, 0.02, 0.0)


class TestRelativeEntropy:
    def test_zero_for_identical_densities(self):
        g = gaussian_density(sigma_grid(0.04), 0.0, 0.04)
        assert relative_entropy(g, g) == 0.0

    def test_nonpositive_for_distinct_densities(self):
        pts = sigma_grid(0.04)
        p = gaussian_density(pts, 0.0, 0.04)
        q = gaussian_density(pts, 0.05, 0.03)
        assert relative_entropy(p, q) < 0.0

    def test_two_point_hand_oracle(self):
        # h = 1 and two nodes: the sum is -(1.2 ln 1.2 + 0.8 ln 0.8).
        pts = np.array([0.0, 1.0])
        p = DensityGrid(pts, np.array([1.2, 0.8]))
        q = DensityGrid(pts, np.array([1.0, 1.0]))
        expected = -(1.2 * math.log(1.2) + 0.8 * math.log(0.8))
        assert relative_entropy(p, q) == pytest.approx(expected, abs=1e-15)

    def test_gaussian_pair_analytic_oracle(self):
        # For unit-mass Gaussians the value is -(ln(k2/k1) + k1/k2 - 1)/2;
        # with k1 = 1, k2 = 2 that is -(ln 2 - 1/2)/2 = -0.09657359027997265.
        pts = np.linspace(-12.0, 12.0, 24001)
        p = gaussian_density(pts, 0.0, 1.0)
        q = gaussian_density(pts, 0.0, 2.0)
        assert relative_entropy(p, q) == pytest.approx(
            -0.09657359027997265, abs=1e-12
        )

    def test_narrowing_against_broad_prior_decreases(self):
        # A spike measured against a broad uniform prior carries large
        # negative entropy, and narrowing the spike only lowers it.
        pts = np.linspace(-3.0, 3.0, 6001)
        q = uniform_density(pts)
        values = [
            relative_entropy(gaussian_density(pts, 0.0, v), q)
            for v in (1e-2, 1e-3, 1e-4)
        ]
        assert values[0] < -1.0
        assert values[0] > values[1] > values[2], (
            f"entropy not monotone under narrowing: {values}"
        )

    def test_support_violation_raises(self):
        pts = np.linspace(0.0, 1.0, 5)
        p = DensityGrid(pts, np.array([0.2, 0.4, 0.4, 0.2, 0.2]))
        q = DensityGrid(pts, np.array([0.2, 0.0, 0.4, 0.2, 0.2]))
        with pytest.raises(SupportViolation):
            relative_entropy(p, q)

    def test_zero_log_zero_convention(self):
        pts = np.linspace(0.0, 1.0, 5)
        p = DensityGrid(pts, np.array([0.0, 1.0, 1.0, 1.0, 0.0])).normalize()
        q = uniform_density(pts)
        value = relative_entropy(p, q)
        assert math.isfinite(value)

    def test_grid_mismatch_raises(self):
        p = uniform_density(np.linspace(0.0, 1.0, 5))
        q = uniform_density(np.linspace(0.0, 1.0, 7))
        from entropic_fx import GridMismatch

        with pytest.raises(GridMismatch):
            relative_entropy(p, q)


class TestVarianceTilt:
    """Tightening the variance of a centered Gaussian prior.

    The maxent update of an N(0, k) prior under a second-moment target k'
    is the N(0, k') density, with multiplier -(1/k' - 1/k)/2.
    """

    def test_recovers_gaussian_and_multiplier(self):
        k, k_prime = 0.04, 0.01
        pts = sigma_grid(k)
        prior = gaussian_density(pts, 0.0, k)
        constraints = ConstraintSpec((SecondCentralMoment(0.0),), (k_prime,))
        sol = solve_maxent(pts, prior, constraints)

        expected_lambda = -0.5 * (1.0 / k_prime - 1.0 / k)
        assert sol.multipliers[0] == pytest.approx(expected_lambda, rel=1e-9)
        assert sol.residual_norm <= 1e-12
        assert sol.density.variance() == pytest.approx(k_prime, rel=1e-6)

        exact = np.exp(-pts**2 / (2.0 * k_prime)) / math.sqrt(2.0 * math.pi * k_prime)
        worst = float(np.max(np.abs(sol.density.weights - exact)))
        assert worst < 1e-6, f"pointwise recovery error {worst:.3e}"

    def test_widening_variance_also_converges(self):
        k, k_prime = 0.01, 0.02
        pts = sigma_grid(k, sigmas=25.0)  # generous room for the wider target
        prior = gaussian_density(pts, 0.0, k)
        constraints = ConstraintSpec((SecondCentralMoment(0.0),), (k_prime,))
        sol = solve_maxent(pts, prior, constraints)
        assert sol.density.variance() == pytest.approx(k_prime, rel=1e-5)
        assert sol.multipliers[0] == pytest.approx(
            -0.5 * (1.0 / k_prime - 1.0 / k), rel=1e-6
        )

    def test_mean_tilt_of_gaussian(self):
        # First-moment target m = 0.01 turns N(0, k) into N(m, k): the
        # mean shifts, the variance stays, and lambda = m / k.
        k, m = 0.04, 0.01
        pts = sigma_grid(k)
        prior = gaussian_density(pts, 0.0, k)
        sol = solve_maxent(pts, prior, ConstraintSpec((FirstMoment(),), (m,)))
        assert sol.multipliers[0] == pytest.approx(m / k, rel=1e-9)
        assert sol.density.mean() == pytest.approx(m, abs=1e-12)
        assert sol.density.variance() == pytest.approx(k, rel=1e-6)
        shifted = gaussian_density(pts, m, k)
        assert float(np.max(np.abs(sol.density.weights - shifted.weights))) < 1e-6

    def test_uniform_prior_becomes_gaussian(self):
        # A pure second-moment constraint on a flat prior produces the
        # Gaussian with that variance, node for node.
        pts = np.linspace(-3.0, 3.0, 6001)
        prior = uniform_density(pts)
        k = 0.04
        sol = solve_maxent(pts, prior, ConstraintSpec((SecondCentralMoment(0.0),), (k,)))
        target = gaussian_density(pts, 0.0, k)
        assert float(np.max(np.abs(sol.density.weights - target.weights))) < 1e-8
        assert sol.multipliers[0] == pytest.approx(-0.5 / k, rel=1e-9)

    def test_joint_mean_and_variance_tilt(self):
        k = 0.04
        m_target, v_target = 0.03, 0.02
        pts = sigma_grid(k)
        prior = gaussian_density(pts, 0.0, k)
        constraints = ConstraintSpec(
            (FirstMoment(), SecondCentralMoment(m_target)), (m_target, v_target)
        )
        sol = solve_maxent(pts, prior, constraints)
        assert sol.density.mean() == pytest.approx(m_target, abs=1e-10)
        variance = sol.density.expectation((pts - m_target) ** 2)
        assert variance == pytest.approx(v_target, rel=1e-9)

    def test_prior_rescaling_invariance(self):
        # Any positive rescaling of the prior gives the same solution.
        k, k_prime = 0.04, 0.01
        pts = sigma_grid(k)
        prior = gaussian_density(pts, 0.0, k)
        scaled = DensityGrid(pts, prior.weights * 17.0)
        constraints = ConstraintSpec((SecondCentralMoment(0.0),), (k_prime,))
        a = solve_maxent(pts, prior, constraints)
        b = solve_maxent(pts, scaled, constraints)
        # Identical up to the rounding introduced by the rescale itself.
        assert a.multipliers[0] == pytest.approx(b.multipliers[0], rel=1e-12)
        worst = float(np.max(np.abs(a.density.weights - b.density.weights)))
        assert worst <= 1e-12 * float(a.density.weights.max())

    @given(
        k=st.floats(min_value=0.005, max_value=0.1),
        ratio=st.floats(min_value=0.15, max_value=0.9),
    )
    @settings(max_examples=25, deadline=None)
    def test_variance_tilt_property(self, k, ratio):
        k_prime = ratio * k
        pts = sigma_grid(k, sigmas=10.0, h=math.sqrt(k) / 100.0)
        prior = gaussian_density(pts, 0.0, k)
        sol = solve_maxent(
            pts, prior, ConstraintSpec((SecondCentralMoment(0.0),), (k_prime,))
        )
        expected = -0.5 * (1.0 / k_prime - 1.0 / k)
        assert sol.multipliers[0] == pytest.approx(expected, rel=1e-6), (
            f"multiplier {sol.multipliers[0]} vs {expected} for k={k}, k'={k_prime}"
        )


class TestSolverBehaviour:
    def test_empty_constraints_returns_prior_object(self):
        pts = sigma_grid(0.04)
        prior = gaussian_density(pts, 0.0, 0.04)
        sol = solve_maxent(pts, prior, ConstraintSpec((), ()))
        assert sol.density is prior
        assert sol.iterations == 0
        assert sol.residual_norm == 0.0
        assert sol.multipliers.size == 0

    def test_empty_constraints_preserve_unnormalized_prior(self):
        pts = sigma_grid(0.04)
        raw = DensityGrid(pts, np.full(pts.size, 2.0))
        sol = solve_maxent(pts, raw, ConstraintSpec((), ()))
        assert np.array_equal(sol.density.weights, raw.weights)

    def test_dual_path_strictly_decreasing(self):
        pts = sigma_grid(0.04)
        prior = gaussian_density(pts, 0.0, 0.04)
        sol = solve_maxent(
            pts, prior, ConstraintSpec((SecondCentralMoment(0.0),), (0.01,))
        )
        diffs = np.diff(sol.dual_path)
        assert sol.dual_path.size >= 2
        assert np.all(diffs < 0.0), f"dual path not strictly decreasing: {sol.dual_path}"

    def test_iteration_budget_exhaustion(self):
        pts = sigma_grid(0.04)
        prior = gaussian_density(pts, 0.0, 0.04)
        with pytest.raises(NoConvergence):
            solve_maxent(
                pts,
                prior,
                ConstraintSpec((SecondCentralMoment(0.0),), (0.01,)),
                max_iter=1,
            )

    def test_infeasible_target_above_range(self):
        pts = np.linspace(-1.0, 1.0, 201)
        prior = uniform_density(pts)
        # Max of (x - 0)^2 on the grid is 1; a target of 2 is unattainable.
        with pytest.raises(InfeasibleConstraints):
            solve_maxent(
                pts, prior, ConstraintSpec((SecondCentralMoment(0.0),), (2.0,))
            )

    def test_infeasible_mean_outside_grid(self):
        pts = np.linspace(-1.0, 1.0, 201)
        prior = uniform_density(pts)
        with pytest.raises(InfeasibleConstraints):
            solve_maxent(pts, prior, ConstraintSpec((FirstMoment(),), (1.5,)))

    def test_near_boundary_target_diverges_cleanly(self):
        # A feasible-in-principle target squeezed against the grid edge
        # either converges or fails loudly; it must not return garbage.
        pts = np.linspace(-1.0, 1.0, 101)
        prior = uniform_density(pts)
        try:
            sol = solve_maxent(
                pts, prior, ConstraintSpec((FirstMoment(),), (0.999999,)), max_iter=200
            )
        except (InfeasibleConstraints, NoConvergence):
            return
        assert sol.density.mean() == pytest.approx(0.999999, abs=1e-6)

    def test_tol_validation(self):
        pts = sigma_grid(0.04)
        prior = gaussian_density(pts, 0.0, 0.04)
        with pytest.raises(DomainError):
            solve_maxent(pts, prior, ConstraintSpec((), ()), tol=0.0)

    def test_max_iter_validation(self):
        pts = sigma_grid(0.04)
        prior = gaussian_density(pts, 0.0, 0.04)
        with pytest.raises(DomainError):
            solve_maxent(pts, prior, ConstraintSpec((), ()), max_iter=0)

    def test_constraint_spec_validation(self):
        with pytest.raises(DomainError):
            ConstraintSpec((FirstMoment(),), ())
        with pytest.raises(DomainError):
            ConstraintSpec((FirstMoment(),), (math.nan,))
        with pytest.raises(DomainError):
            ConstraintSpec((SecondCentralMoment(0.0),), (-0.01,))

    def test_restricted_support_is_respected(self):
        # Zero-weight prior nodes must stay at zero in the solution.
        pts = np.linspace(-1.0, 1.0, 401)
        w = np.where(np.abs(pts) <= 0.5, 1.0, 0.0)
        prior = DensityGrid(pts, w).normalize()
        sol = solve_maxent(
            pts, prior, ConstraintSpec((FirstMoment(),), (0.1,))
        )
        outside = np.abs(pts) > 0.5
        assert np.all(sol.density.weights[outside] == 0.0)
        assert sol.density.mean() == pytest.approx(0.1, abs=1e-10)

    def test_duplicate_constraint_takes_the_ridge(self, monkeypatch):
        # Two copies of one feature make the Hessian singular, so some Newton
        # steps solve it with a ridge.  The solve still converges, to the
        # density of the problem without the copy, and the copies'
        # multipliers add up to that problem's single one.
        pts = np.linspace(-1.0, 1.0, 2001)
        prior = uniform_density(pts)
        solve, singular = np.linalg.solve, []

        def counting_solve(a, b):
            try:
                return solve(a, b)
            except np.linalg.LinAlgError:
                singular.append(a)
                raise

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        sol = solve_maxent(pts, prior, ConstraintSpec(
            (FirstMoment(), FirstMoment(), SecondCentralMoment(0.0)), (0.01, 0.01, 0.05)
        ))
        monkeypatch.undo()
        ref = solve_maxent(pts, prior, ConstraintSpec(
            (FirstMoment(), SecondCentralMoment(0.0)), (0.01, 0.05)
        ))
        assert singular
        assert sol.residual_norm <= 1e-12
        peak = float(ref.density.weights.max())
        assert np.max(np.abs(sol.density.weights - ref.density.weights)) <= 1e-12 * peak
        lam = sol.multipliers
        assert lam[0] + lam[1] == pytest.approx(ref.multipliers[0], rel=0.0, abs=1e-12)
        assert lam[2] == pytest.approx(ref.multipliers[1], rel=1e-12)


def two_moment_problem(mean, var, n_points):
    """Uniform prior on mean +- (|mean| + 12 sd) with the continuity
    (second moment) and directionality (first moment) constraints."""
    half = abs(mean) + 12.0 * math.sqrt(var)
    pts = np.linspace(-half, half, n_points)
    constraints = ConstraintSpec(
        (FirstMoment(), SecondCentralMoment(0.0)), (mean, var + mean * mean)
    )
    return pts, uniform_density(pts), constraints


class TestEntropicKernel:
    """One step of the paper's entropic inference: maxent under the two
    constraints recovers the GBM transition law and its two multipliers."""

    @given(
        sigma=st.floats(min_value=0.05, max_value=1.0),
        dt=st.floats(min_value=1e-4, max_value=0.1),
        drift_gap=st.floats(min_value=-0.1, max_value=0.2),
    )
    @settings(max_examples=30, deadline=None)
    def test_kernel_is_the_transition_law(self, sigma, dt, drift_gap):
        market = MarketParams(u0=1.0, drift_d=drift_gap, drift_f=0.0, sigma=sigma)
        td = transition_density(market, dt)
        pts, prior, constraints = two_moment_problem(td.log_mean, td.log_var, 2001)
        sol = solve_maxent(pts, prior, constraints)
        # The worst draws are the smallest variances, where the solver's
        # absolute 1e-12 moment tolerance stops Newton one step early
        # (3.4e-7 at sigma 0.05, dt 1e-4).  beta crosses zero inside the
        # domain, so its error is relative to max(|beta|, 1).
        beta = beta_multiplier(drift_gap, 0.0, sigma)
        half_alpha = 0.5 * alpha_from_entropic_time(sigma, dt)
        assert abs(sol.multipliers[0] - beta) <= 1e-6 * max(abs(beta), 1.0), (
            f"lambda_1 {sol.multipliers[0]!r} vs beta {beta!r}"
        )
        assert abs(sol.multipliers[1] + half_alpha) <= 1e-6 * half_alpha, (
            f"lambda_2 {sol.multipliers[1]!r} vs -alpha/2 {-half_alpha!r}"
        )
        exact = transition_pdf(td, pts)
        err = float(np.max(np.abs(sol.density.weights - exact))) / float(exact.max())
        assert err <= 1e-6, f"kernel off the transition law by {err:.3e} of its peak"


def reference_solve(grid, prior, constraints, tol=1e-12):
    """solve_maxent's Newton iteration with its earlier dual evaluation: the
    feature matrix masked by column to the support (an F-ordered copy),
    ``feats.T @ lam``, and fresh temporaries on every call."""
    prior = prior.normalize()
    targets = np.asarray(constraints.targets, dtype=float)
    support = prior.weights > 0.0
    c = np.full(grid.size, prior.h)
    c[0] = c[-1] = 0.5 * prior.h
    feats = constraints.feature_matrix(grid)[:, support]
    base = (c * prior.weights)[support]

    def dual_state(lam):
        s = feats.T @ lam
        s_max = float(np.max(s))
        scaled = base * np.exp(s - s_max)
        z = float(np.sum(scaled))
        dual = s_max + np.log(z) - float(lam @ targets)
        node_mass = scaled / z
        moments = feats @ node_mass
        grad = moments - targets
        centered = feats - moments[:, None]
        hess = (centered * node_mass) @ centered.T
        return dual, node_mass, grad, hess

    lam = np.zeros(feats.shape[0])
    dual, node_mass, grad, hess = dual_state(lam)
    iterations = 0
    while float(np.max(np.abs(grad))) > tol:
        assert iterations < 100
        step = np.linalg.solve(hess, -grad)
        predicted = -0.5 * float(grad @ step)
        full_step = predicted <= 8.0 * np.finfo(float).eps * (1.0 + abs(dual))
        scale = 1.0
        for _ in range(61):
            trial = lam + scale * step
            state = dual_state(trial)
            if full_step or state[0] < dual:
                break
            scale *= 0.5
        lam, (dual, node_mass, grad, hess) = trial, state
        iterations += 1
    weights = np.zeros(grid.size)
    weights[support] = node_mass / c[support]
    return lam, iterations, DensityGrid(grid, weights).normalize().weights


class TestReferenceDual:
    """The workspace dual evaluation against the fresh-temporary one: the
    same arithmetic in another memory layout, so only the last bits move."""

    def assert_matches_reference(self, pts, prior, constraints):
        sol = solve_maxent(pts, prior, constraints)
        lam, iterations, weights = reference_solve(pts, prior, constraints)
        assert sol.iterations == iterations
        assert np.all(np.abs(sol.multipliers - lam) <= 1e-13 * np.abs(lam)), (
            f"multipliers {sol.multipliers!r} vs reference {lam!r}"
        )
        worst = float(np.max(np.abs(sol.density.weights - weights)))
        assert worst <= 1e-13 * float(weights.max())

    # The benchmark's grid_solvers problem: ordinary and fine grids.
    @pytest.mark.parametrize("n_points", [2001, 16001])
    @pytest.mark.parametrize("sigma, t, log_drift", [(0.2, 1.0, 0.01), (0.6, 0.25, -0.2)])
    def test_benchmark_problem(self, n_points, sigma, t, log_drift):
        mean, var = log_drift * t, sigma * sigma * t
        self.assert_matches_reference(*two_moment_problem(mean, var, n_points))

    def test_prior_with_zero_weight_nodes(self):
        pts = np.linspace(-1.0, 1.0, 401)
        prior = DensityGrid(pts, np.where(np.abs(pts) <= 0.5, 1.0 + pts, 0.0))
        constraints = ConstraintSpec(
            (FirstMoment(), SecondCentralMoment(0.0)), (0.1, 0.06)
        )
        assert np.count_nonzero(prior.weights) < pts.size
        self.assert_matches_reference(pts, prior, constraints)
