"""End-to-end acceptance suite.

One test per criterion; `pytest -v` prints one pass/fail line for each.
Every test also enforces its runtime budget.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from entropic_fx import (
    ConstraintSpec,
    MarketParams,
    OptionSpec,
    SecondCentralMoment,
    alpha_from_entropic_time,
    analytic_density,
    beta_multiplier,
    closed_form_price,
    default_grid,
    default_pde_grid,
    evolve_density,
    gaussian_density,
    l1_distance,
    mc_price,
    parity_residual,
    pde_price,
    point_mass_density,
    quadrature_price,
    simulate_paths,
    solve_maxent,
    std_normal_cdf,
    transition_density,
)

from conftest import BATTERY, battery_case

MC_SEED_BASE = 20260822


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "entropic_fx", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_criterion_1_maxent_recovery():
    started = time.monotonic()
    k, k_prime, h = 0.04, 0.01, 1e-3
    half = 10.0 * math.sqrt(k)
    n = int(round(2.0 * half / h)) + 1
    pts = np.linspace(-half, half, n)
    prior = gaussian_density(pts, 0.0, k)

    def continuum_gaussian(var):
        return np.exp(-pts**2 / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)

    # Prior recovery: constraining the variance to its own value must give
    # back the prior itself.
    sol_prior = solve_maxent(
        pts, prior, ConstraintSpec((SecondCentralMoment(0.0),), (k,))
    )
    prior_err = float(np.max(np.abs(sol_prior.density.weights - continuum_gaussian(k))))
    assert prior_err < 1e-6, f"prior pointwise error {prior_err:.3e}"
    assert sol_prior.residual_norm < 1e-12

    # Posterior: tilting the variance down to k' lands on the k' Gaussian.
    sol_post = solve_maxent(
        pts, prior, ConstraintSpec((SecondCentralMoment(0.0),), (k_prime,))
    )
    post_err = float(
        np.max(np.abs(sol_post.density.weights - continuum_gaussian(k_prime)))
    )
    assert post_err < 1e-6, f"posterior pointwise error {post_err:.3e}"
    assert sol_post.residual_norm < 1e-12

    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"
    print(
        f"criterion 1: prior err {prior_err:.2e}, posterior err {post_err:.2e}, "
        f"residuals {sol_prior.residual_norm:.1e}/{sol_post.residual_norm:.1e}, "
        f"{elapsed:.2f}s"
    )


def test_criterion_2_multiplier_identities():
    started = time.monotonic()
    rng = np.random.default_rng(1234)
    n_tuples = 10_000
    worst_alpha = worst_beta = 0.0
    for _ in range(n_tuples):
        sigma = float(rng.uniform(0.01, 1.5))
        dt = float(rng.uniform(1e-4, 10.0))
        mu_d = float(rng.uniform(-0.2, 0.2))
        mu_f = float(rng.uniform(-0.2, 0.2))

        alpha = alpha_from_entropic_time(sigma, dt)
        # Direct arithmetic with a different association order.
        alpha_direct = (1.0 / sigma) * (1.0 / sigma) / dt
        rel_a = abs(alpha - alpha_direct) / max(1.0, abs(alpha_direct))
        worst_alpha = max(worst_alpha, rel_a)

        beta = beta_multiplier(mu_d, mu_f, sigma)
        # Direct transcription of the formula; the power operator takes a
        # separate code path from the repeated multiply inside.
        beta_direct = (mu_d - mu_f) / sigma**2 - 0.5
        rel_b = abs(beta - beta_direct) / max(1.0, abs(beta_direct))
        worst_beta = max(worst_beta, rel_b)

    assert worst_alpha <= 1e-15, f"alpha identity off by {worst_alpha:.3e}"
    assert worst_beta <= 1e-15, f"beta identity off by {worst_beta:.3e}"

    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"criterion 2 took {elapsed:.2f}s"
    print(
        f"criterion 2: worst alpha {worst_alpha:.2e}, worst beta {worst_beta:.2e} "
        f"over {n_tuples} tuples, {elapsed:.2f}s"
    )


def test_criterion_3_sde_moments():
    started = time.monotonic()
    parameter_sets = [
        (1.0, 0.05, 0.02, 0.2, 1.0),
        (1.3, 0.0, 0.0, 0.05, 0.5),
        (0.8, 0.1, -0.01, 0.6, 2.0),
        (2.0, -0.01, 0.1, 0.35, 0.25),
        (1.0, 0.02, 0.07, 0.45, 3.0),
    ]
    n_paths = 1_000_000
    reports = []
    for i, (u0, rd, rf, sigma, horizon) in enumerate(parameter_sets):
        market = MarketParams(u0=u0, drift_d=rd, drift_f=rf, sigma=sigma)
        paths = simulate_paths(
            market, horizon, n_steps=5, n_paths=n_paths, seed=777 + i, n_partitions=4
        )
        log_ratio = paths.terminal_log - math.log(u0)
        target_mean = market.log_drift * horizon
        target_var = sigma**2 * horizon

        se_mean = sigma * math.sqrt(horizon) / math.sqrt(n_paths)
        z_mean = abs(float(log_ratio.mean()) - target_mean) / se_mean
        se_var = target_var * math.sqrt(2.0 / (n_paths - 1))
        z_var = abs(float(log_ratio.var(ddof=1)) - target_var) / se_var

        assert z_mean < 4.0, f"set {i}: mean z-score {z_mean:.2f}"
        assert z_var < 4.0, f"set {i}: variance z-score {z_var:.2f}"
        reports.append(f"set {i}: z_mean {z_mean:.2f}, z_var {z_var:.2f}")

    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"criterion 3 took {elapsed:.2f}s"
    print(f"criterion 3: {'; '.join(reports)}, {elapsed:.2f}s")


def test_criterion_4_fokker_planck_vs_analytic():
    started = time.monotonic()
    market = MarketParams(u0=1.0, drift_d=0.05, drift_f=0.02, sigma=0.2)
    t = 1.0

    # Headline accuracy at the production resolution.
    spec = default_grid(market, t, n_points=2001, n_time_steps=1000)
    pts = spec.points()
    evolved = evolve_density(point_mass_density(pts, 0.0), market, t, spec)
    l1_main = l1_distance(evolved, analytic_density(market, t, pts))
    assert l1_main < 1e-3, f"L1 distance {l1_main:.3e} at n=2001"

    # Refinement ladder: quadratic time-step scaling keeps the temporal
    # error subordinate, so the fitted slope measures the spatial order.
    errors, spacings = [], []
    for n in (251, 501, 1001):
        steps = max(10, int(40 * ((n - 1) / 250) ** 2))
        spec_n = default_grid(market, t, n_points=n, n_time_steps=steps)
        pts_n = spec_n.points()
        evolved_n = evolve_density(point_mass_density(pts_n, 0.0), market, t, spec_n)
        errors.append(l1_distance(evolved_n, analytic_density(market, t, pts_n)))
        spacings.append(float(pts_n[1] - pts_n[0]))
    slope = float(
        np.polyfit(np.log(np.asarray(spacings)), np.log(np.asarray(errors)), 1)[0]
    )
    assert 1.7 <= slope <= 2.3, f"measured convergence order {slope:.3f}"

    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"criterion 4 took {elapsed:.2f}s"
    print(
        f"criterion 4: L1 {l1_main:.2e} at n=2001, ladder errors "
        f"{[f'{e:.2e}' for e in errors]}, slope {slope:.3f}, {elapsed:.2f}s"
    )


def test_criterion_5_four_way_price_agreement():
    started = time.monotonic()
    worst_quad = worst_pde = worst_z = 0.0
    for i, row in enumerate(BATTERY):
        market, option = battery_case(row)
        reference = closed_form_price(market, option).premium

        quad = quadrature_price(market, option).premium
        worst_quad = max(worst_quad, abs(quad - reference))
        assert abs(quad - reference) <= 1e-10, (
            f"case {i} {row}: quadrature off by {quad - reference:.3e}"
        )

        pde = pde_price(market, option, default_pde_grid(market, option)).premium
        rel = abs(pde - reference) / reference
        worst_pde = max(worst_pde, rel)
        assert rel <= 1e-4, f"case {i} {row}: PDE relative error {rel:.3e}"

        mc = mc_price(market, option, n_paths=1_000_000, seed=MC_SEED_BASE + i)
        z = abs(mc.premium - reference) / mc.std_error
        worst_z = max(worst_z, z)
        assert z <= 3.0, f"case {i} {row}: MC z-score {z:.2f}"

    elapsed = time.monotonic() - started
    assert elapsed < 300.0, f"criterion 5 took {elapsed:.2f}s"
    print(
        f"criterion 5: worst quadrature {worst_quad:.2e}, worst PDE rel "
        f"{worst_pde:.2e}, worst MC z {worst_z:.2f} over {len(BATTERY)} cases, "
        f"{elapsed:.1f}s"
    )


def test_criterion_6_put_call_parity_sweep():
    started = time.monotonic()
    rng = np.random.default_rng(99)
    n_tuples = 10_000
    worst = 0.0
    for _ in range(n_tuples):
        u0 = float(rng.uniform(0.1, 10.0))
        rd = float(rng.uniform(-0.05, 0.15))
        rf = float(rng.uniform(-0.05, 0.15))
        sigma = float(rng.uniform(0.01, 1.0))
        strike = u0 * float(np.exp(rng.uniform(-0.7, 0.7)))
        expiry = float(rng.uniform(0.05, 8.0))
        market = MarketParams.risk_neutral(u0, rd, rf, sigma)
        residual = abs(parity_residual(market, strike, expiry))
        bound = 1e-12 * max(u0, strike)
        assert residual <= bound, (
            f"parity residual {residual:.3e} > {bound:.3e} at "
            f"u0={u0}, K={strike}, rd={rd}, rf={rf}, sigma={sigma}, T={expiry}"
        )
        worst = max(worst, residual / bound)

    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"criterion 6 took {elapsed:.2f}s"
    print(
        f"criterion 6: worst residual at {worst:.3f} of bound over {n_tuples} "
        f"tuples, {elapsed:.2f}s"
    )


def test_criterion_7_scale_invariance():
    started = time.monotonic()
    rng = np.random.default_rng(2718)
    base = MarketParams.risk_neutral(1.0, 0.05, 0.02, 0.2)

    # Transition law: joint log shift leaves it exactly unchanged.
    for _ in range(100):
        scale = float(np.exp(rng.uniform(math.log(1e-3), math.log(1e3))))
        dt = float(rng.uniform(0.01, 5.0))
        assert transition_density(base, dt) == transition_density(
            base.with_spot(scale), dt
        ), f"transition law changed under spot rescale {scale}"

    # Premium homogeneity: C(l*u0, l*K) = l*C(u0, K) to 1e-12 relative.
    worst = 0.0
    for _ in range(100):
        scale = float(np.exp(rng.uniform(math.log(1e-3), math.log(1e3))))
        strike_ratio = float(rng.uniform(0.5, 2.0))
        kind = "call" if rng.uniform() < 0.5 else "put"
        plain = closed_form_price(base, OptionSpec(kind, strike_ratio, 1.0)).premium
        scaled = closed_form_price(
            base.with_spot(scale), OptionSpec(kind, strike_ratio * scale, 1.0)
        ).premium
        rel = abs(scaled - scale * plain) / (scale * plain)
        worst = max(worst, rel)
        assert rel <= 1e-12, f"homogeneity off by {rel:.3e} at l={scale}"

    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"criterion 7 took {elapsed:.2f}s"
    print(f"criterion 7: worst homogeneity error {worst:.2e}, {elapsed:.2f}s")


def test_criterion_8_d1_convention_resolution():
    started = time.monotonic()
    worst_correct = 0.0
    best_wrong_gap = 0.0
    for row in BATTERY:
        market, option = battery_case(row)
        integral = quadrature_price(market, option).premium

        # Convention under test: +sigma^2/2 in the d1 numerator.
        correct = closed_form_price(market, option).premium
        worst_correct = max(worst_correct, abs(correct - integral))

        # The alternative convention flips the sign of the sigma^2/2 term,
        # which shifts both arguments down by sigma*sqrt(T).
        sig_sqrt_t = market.sigma * math.sqrt(option.expiry)
        d1w = (
            math.log(market.u0 / option.strike)
            + (market.drift_d - market.drift_f - 0.5 * market.sigma**2)
            * option.expiry
        ) / sig_sqrt_t
        d2w = d1w - sig_sqrt_t
        disc_f = market.u0 * math.exp(-market.drift_f * option.expiry)
        disc_d = option.strike * math.exp(-market.drift_d * option.expiry)
        if option.kind == "call":
            wrong = disc_f * std_normal_cdf(d1w) - disc_d * std_normal_cdf(d2w)
        else:
            wrong = disc_d * std_normal_cdf(-d2w) - disc_f * std_normal_cdf(-d1w)
        best_wrong_gap = max(best_wrong_gap, abs(wrong - integral))

    assert worst_correct <= 1e-10, (
        f"+sigma^2/2 convention deviates {worst_correct:.3e} from the integral"
    )
    assert best_wrong_gap > 1e-3, (
        f"-sigma^2/2 convention only deviates {best_wrong_gap:.3e}; "
        "expected a clear failure on at least one case"
    )

    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"criterion 8 took {elapsed:.2f}s"
    print(
        f"criterion 8: correct convention within {worst_correct:.2e} of the "
        f"integral on all cases; alternative off by up to {best_wrong_gap:.2e}, "
        f"{elapsed:.2f}s"
    )


def test_criterion_9_cli_end_to_end():
    started = time.monotonic()
    price_args = (
        "price",
        "--u0", "1.0", "--strike", "1.0", "--rd", "0.05", "--rf", "0.02",
        "--sigma", "0.2", "--expiry", "1.0", "--kind", "call",
    )

    # Determinism: byte-identical reruns under a fixed seed.
    mc_args = (*price_args, "--method", "monte_carlo", "--n-paths", "50000",
               "--seed", "17")
    first = run_cli(*mc_args)
    second = run_cli(*mc_args)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout, "Monte Carlo rerun not byte-identical"
    sim_args = (
        "simulate", "--u0", "1.0", "--rd", "0.05", "--rf", "0.02",
        "--sigma", "0.2", "--horizon", "1.0", "--n-steps", "10",
        "--n-paths", "8", "--seed", "3",
    )
    assert run_cli(*sim_args).stdout == run_cli(*sim_args).stdout

    # Exit-code matrix: success 0, config/domain 2, numerical 3.
    assert run_cli(*price_args).returncode == 0
    missing = run_cli("price", "--u0", "1.0")
    assert missing.returncode == 2
    assert json.loads(missing.stderr)["error"] == "ConfigError"
    bad_domain = run_cli(
        "price", "--u0", "1.0", "--strike", "1.0", "--rd", "0.05",
        "--rf", "0.02", "--sigma", "-0.2", "--expiry", "1.0", "--kind", "call",
    )
    assert bad_domain.returncode == 2
    assert json.loads(bad_domain.stderr)["error"] == "DomainError"
    numerical = run_cli(*price_args, "--method", "quadrature", "--tol", "1e-18")
    assert numerical.returncode == 3
    assert json.loads(numerical.stderr)["error"] == "ToleranceNotMet"

    # JSON round-trip: emitted floats reparse to the same values.
    emitted = run_cli(*price_args)
    data = json.loads(emitted.stdout)
    assert json.loads(json.dumps(data)) == data
    market = MarketParams.risk_neutral(1.0, 0.05, 0.02, 0.2)
    assert data == closed_form_price(market, OptionSpec("call", 1.0, 1.0)).to_json_dict()

    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"criterion 9 took {elapsed:.2f}s"
    print(f"criterion 9: determinism, exit codes, JSON round-trip, {elapsed:.2f}s")
