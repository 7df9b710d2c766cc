import json
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropic_fx import pricing
from entropic_fx import (
    DomainError,
    FPGridSpec,
    GridTooNarrow,
    MarketParams,
    MeasureError,
    NumericalError,
    OptionSpec,
    PriceResult,
    ToleranceNotMet,
    closed_form_price,
    default_pde_grid,
    mc_price,
    parity_residual,
    pde_price,
    quadrature_price,
    std_normal_cdf,
)
from entropic_fx.market import _d1_d2
from entropic_fx.pricing import _payoff_in_place

from conftest import BATTERY, apply_tridiag, battery_case, same_bits

# Frozen oracle values for the standard case u0=1, K=1, rd=0.05, rf=0.02,
# sigma=0.2, T=1, computed with 40-digit arithmetic.
STD_D1 = 0.25
STD_D2 = 0.05
STD_CALL = 0.09227005508154048
STD_PUT = 0.06330080627549918

market_strategy = st.builds(
    MarketParams.risk_neutral,
    st.floats(min_value=0.1, max_value=10.0),  # u0
    st.floats(min_value=-0.05, max_value=0.15),  # r_d
    st.floats(min_value=-0.05, max_value=0.15),  # r_f
    st.floats(min_value=0.01, max_value=1.0),  # sigma
)


class TestStdNormalCdf:
    def test_central_values(self):
        assert std_normal_cdf(0.0) == 0.5
        # The 97.5% quantile of the standard normal.
        assert abs(std_normal_cdf(1.959963984540054) - 0.975) < 1e-14

    def test_deep_tail_keeps_precision(self):
        # erfc-based evaluation holds on to tiny tail mass instead of
        # flushing to zero.
        assert 0.0 < std_normal_cdf(-38.0) < 1e-300
        assert std_normal_cdf(38.0) == 1.0 - std_normal_cdf(-38.0) or (
            std_normal_cdf(38.0) == 1.0
        )

    def test_monotone(self):
        xs = np.linspace(-8.0, 8.0, 1601)
        vals = [std_normal_cdf(float(x)) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    @given(x=st.floats(min_value=-30.0, max_value=30.0))
    @settings(max_examples=300, deadline=None)
    def test_complement_sum_is_exactly_one(self, x):
        # Evaluating the smaller tail first makes the pair sum to exactly
        # 1.0 in floating point, not merely close to it.
        assert std_normal_cdf(x) + std_normal_cdf(-x) == 1.0


class TestClosedForm:
    def std(self):
        return MarketParams.risk_neutral(1.0, 0.05, 0.02, 0.2)

    def test_d1_d2_oracle(self):
        d1, d2 = _d1_d2(self.std(), 1.0, 1.0)
        assert abs(d1 - STD_D1) < 1e-15
        assert abs(d2 - STD_D2) < 1e-15

    @given(market=market_strategy, strike=st.floats(min_value=0.2, max_value=5.0))
    @settings(max_examples=200, deadline=None)
    def test_d2_offset_identity(self, market, strike):
        opt = OptionSpec("call", strike, 1.7)
        d1, d2 = _d1_d2(market, opt.strike, opt.expiry)
        gap = market.sigma * math.sqrt(opt.expiry)
        assert d1 - d2 == pytest.approx(gap, abs=1e-12)

    def test_at_the_money_forward_symmetry(self):
        # Equal rates and u0 = K: the log-moneyness vanishes and
        # d1 = sigma sqrt(T) / 2 = -d2.
        market = MarketParams.risk_neutral(1.0, 0.03, 0.03, 0.2)
        d1, d2 = _d1_d2(market, 1.0, 1.0)
        half_width = 0.5 * market.sigma * math.sqrt(1.0)
        assert d1 == pytest.approx(half_width, abs=1e-15)
        assert d2 == pytest.approx(-half_width, abs=1e-15)

    def test_d2_matches_spelled_out_form(self):
        # d2 computed as d1 - sigma sqrt(T) agrees with the direct
        # expression using the -sigma^2/2 drift adjustment.
        for row in BATTERY:
            market, opt = battery_case(row)
            _, d2 = _d1_d2(market, opt.strike, opt.expiry)
            srt = market.sigma * math.sqrt(opt.expiry)
            direct = (
                math.log(market.u0 / opt.strike)
                + (market.drift_d - market.drift_f - 0.5 * market.sigma**2)
                * opt.expiry
            ) / srt
            assert d2 == pytest.approx(direct, abs=1e-12), (
                f"d2 mismatch on {row}: {d2} vs {direct}"
            )

    def test_call_oracle(self):
        result = closed_form_price(self.std(), OptionSpec("call", 1.0, 1.0))
        assert abs(result.premium - STD_CALL) < 1e-12
        assert result.method == "closed_form"
        assert result.diagnostics["d1"] == pytest.approx(STD_D1, abs=1e-15)
        assert result.diagnostics["d2"] == pytest.approx(STD_D2, abs=1e-15)

    def test_put_oracle(self):
        result = closed_form_price(self.std(), OptionSpec("put", 1.0, 1.0))
        assert abs(result.premium - STD_PUT) < 1e-12

    def test_closed_form_dispatch(self):
        # The option's kind picks the formula; d1 and d2 do not depend on it.
        call = closed_form_price(self.std(), OptionSpec("call", 1.0, 1.0))
        put = closed_form_price(self.std(), OptionSpec("put", 1.0, 1.0))
        assert call.diagnostics == put.diagnostics
        assert abs(call.premium - STD_CALL) < 1e-12
        assert abs(put.premium - STD_PUT) < 1e-12

    def test_physical_measure_rejected(self):
        physical = MarketParams(u0=1.0, drift_d=0.05, drift_f=0.02, sigma=0.2)
        with pytest.raises(MeasureError):
            closed_form_price(physical, OptionSpec("call", 1.0, 1.0))

    @given(
        market=market_strategy,
        strike_ratio=st.floats(min_value=0.2, max_value=5.0),
        expiry=st.floats(min_value=0.05, max_value=8.0),
        kind=st.sampled_from(["call", "put"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_signed_formula_matches_per_kind_forms(
        self, market, strike_ratio, expiry, kind
    ):
        # The separate call and put formulas, in their own operation order.
        opt = OptionSpec(kind, strike_ratio * market.u0, expiry)
        d1, d2 = _d1_d2(market, opt.strike, opt.expiry)
        spot = market.u0 * math.exp(-market.drift_f * expiry)
        strike = opt.strike * math.exp(-market.drift_d * expiry)
        if kind == "call":
            expected = spot * std_normal_cdf(d1) - strike * std_normal_cdf(d2)
        else:
            expected = strike * std_normal_cdf(-d2) - spot * std_normal_cdf(-d1)
        assert same_bits(closed_form_price(market, opt).premium, expected)

    def test_put_with_cancelling_legs_is_positive_zero(self):
        # Both legs underflow to 0; the premium must not come out as -0.0.
        market = MarketParams.risk_neutral(1.0, 0.05, 0.02, 1e-8)
        premium = closed_form_price(market, OptionSpec("put", 0.5, 1.0)).premium
        assert same_bits(premium, 0.0)

    def test_deep_itm_call_approaches_forward_value(self):
        # K -> 0: the call is just the discounted foreign-currency spot.
        market = self.std()
        opt = OptionSpec("call", 1e-12, 1.0)
        expected = market.u0 * math.exp(-market.drift_f) - 1e-12 * math.exp(
            -market.drift_d
        )
        assert closed_form_price(market, opt).premium == pytest.approx(expected, rel=1e-12)

    def test_vanishing_vol_otm_call_is_worthless(self):
        # Forward below strike with sigma sqrt(T) -> 0: no value at all.
        market = MarketParams.risk_neutral(1.0, 0.05, 0.02, 1e-8)
        assert closed_form_price(market, OptionSpec("call", 1.1, 1.0)).premium == 0.0

    def test_vanishing_spot_put_is_discounted_strike(self):
        # u0 -> 0: exercise is certain, the put pays the discounted strike.
        market = MarketParams.risk_neutral(1e-12, 0.05, 0.02, 0.2)
        expected = math.exp(-0.05) - 1e-12 * math.exp(-0.02)
        premium = closed_form_price(market, OptionSpec("put", 1.0, 1.0)).premium
        assert premium == pytest.approx(expected, rel=1e-12)

    def test_tiny_sigma_call_is_discounted_intrinsic_forward(self):
        market = MarketParams.risk_neutral(1.0, 0.05, 0.02, 1e-8)
        opt = OptionSpec("call", 0.9, 1.0)
        expected = math.exp(-0.05) * (math.exp(0.03) - 0.9)
        assert closed_form_price(market, opt).premium == pytest.approx(expected, rel=1e-9)

    def test_far_otm_put_is_essentially_worthless(self):
        market = self.std()
        assert closed_form_price(market, OptionSpec("put", 0.01, 1.0)).premium < 1e-100

    @given(
        market=market_strategy,
        strike_ratio=st.floats(min_value=0.2, max_value=5.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_no_arbitrage_bounds(self, market, strike_ratio):
        expiry = 1.3
        strike = strike_ratio * market.u0
        disc_d = math.exp(-market.drift_d * expiry)
        disc_f = math.exp(-market.drift_f * expiry)
        call = closed_form_price(market, OptionSpec("call", strike, expiry)).premium
        put = closed_form_price(market, OptionSpec("put", strike, expiry)).premium
        lower_c = max(market.u0 * disc_f - strike * disc_d, 0.0)
        assert call >= lower_c - 1e-12 * market.u0
        assert call <= market.u0 * disc_f + 1e-12 * market.u0
        lower_p = max(strike * disc_d - market.u0 * disc_f, 0.0)
        assert put >= lower_p - 1e-12 * market.u0
        assert put <= strike * disc_d + 1e-12 * market.u0

    @given(market=market_strategy)
    @settings(max_examples=100, deadline=None)
    def test_call_decreasing_in_strike(self, market):
        strikes = market.u0 * np.array([0.6, 0.8, 1.0, 1.2, 1.5])
        prems = [
            closed_form_price(market, OptionSpec("call", float(k), 1.0)).premium
            for k in strikes
        ]
        assert all(b <= a + 1e-12 for a, b in zip(prems, prems[1:]))


class TestParity:
    def test_standard_case_residual_tiny(self):
        market = MarketParams.risk_neutral(1.0, 0.05, 0.02, 0.2)
        assert abs(parity_residual(market, 1.0, 1.0)) <= 1e-12

    @given(
        market=market_strategy,
        strike_ratio=st.floats(min_value=0.3, max_value=3.0),
        expiry=st.floats(min_value=0.05, max_value=8.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_parity_sweep(self, market, strike_ratio, expiry):
        strike = market.u0 * strike_ratio
        residual = parity_residual(market, strike, expiry)
        bound = 1e-12 * max(market.u0, strike)
        assert abs(residual) <= bound, (
            f"parity residual {residual!r} exceeds {bound!r} for "
            f"u0={market.u0}, K={strike}, T={expiry}"
        )

    @given(
        market=market_strategy,
        strike_ratio=st.floats(min_value=0.3, max_value=3.0),
        expiry=st.floats(min_value=0.05, max_value=8.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_two_closed_form_prices_bitwise(self, market, strike_ratio, expiry):
        strike = market.u0 * strike_ratio
        call = closed_form_price(market, OptionSpec("call", strike, expiry)).premium
        put = closed_form_price(market, OptionSpec("put", strike, expiry)).premium
        forward_leg = market.u0 * math.exp(
            -market.drift_f * expiry
        ) - strike * math.exp(-market.drift_d * expiry)
        assert same_bits(
            parity_residual(market, strike, expiry), call - put - forward_leg
        )

    @pytest.mark.parametrize(
        "strike, expiry",
        [(0.0, 1.0), (-1.0, 1.0), (math.inf, 1.0), (math.nan, 1.0),
         (1.0, 0.0), (1.0, -2.0), (1.0, math.inf)],
    )
    def test_contract_validation(self, strike, expiry):
        market = MarketParams.risk_neutral(1.0, 0.05, 0.02, 0.2)
        with pytest.raises(DomainError):
            parity_residual(market, strike, expiry)
        # A bad contract is reported before a physical measure.
        physical = MarketParams(u0=1.0, drift_d=0.05, drift_f=0.02, sigma=0.2)
        with pytest.raises(DomainError):
            parity_residual(physical, strike, expiry)

    def test_physical_measure_rejected(self):
        physical = MarketParams(u0=1.0, drift_d=0.05, drift_f=0.02, sigma=0.2)
        with pytest.raises(MeasureError):
            parity_residual(physical, 1.0, 1.0)

    def test_quadrature_parity(self):
        # Parity holds across routes, not only inside the closed form.
        market = MarketParams.risk_neutral(1.0, 0.05, 0.02, 0.2)
        call = quadrature_price(market, OptionSpec("call", 1.1, 1.0)).premium
        put = quadrature_price(market, OptionSpec("put", 1.1, 1.0)).premium
        forward_leg = math.exp(-0.02) - 1.1 * math.exp(-0.05)
        assert call - put == pytest.approx(forward_leg, abs=1e-8)


class TestQuadrature:
    def std(self):
        return MarketParams.risk_neutral(1.0, 0.05, 0.02, 0.2)

    def test_matches_closed_form_standard(self):
        got = quadrature_price(self.std(), OptionSpec("call", 1.0, 1.0))
        assert abs(got.premium - STD_CALL) < 1e-12
        assert got.method == "quadrature"
        assert got.std_error is None

    def test_battery_agreement(self):
        for row in BATTERY:
            market, option = battery_case(row)
            reference = closed_form_price(market, option).premium
            got = quadrature_price(market, option).premium
            assert abs(got - reference) <= 1e-10, (
                f"quadrature off by {got - reference:.3e} on {row}"
            )

    def test_random_sweep_agreement(self):
        # A thousand random markets: quadrature and closed form agree to
        # 1e-10 on every one.
        rng = np.random.default_rng(31415)
        worst = 0.0
        for i in range(1000):
            market = MarketParams.risk_neutral(
                u0=float(rng.uniform(0.5, 2.0)),
                r_d=float(rng.uniform(-0.02, 0.12)),
                r_f=float(rng.uniform(-0.02, 0.12)),
                sigma=float(rng.uniform(0.05, 0.6)),
            )
            option = OptionSpec(
                kind="call" if i % 2 == 0 else "put",
                strike=float(market.u0 * rng.uniform(0.5, 2.0)),
                expiry=float(rng.uniform(0.1, 5.0)),
            )
            gap = abs(
                quadrature_price(market, option).premium
                - closed_form_price(market, option).premium
            )
            worst = max(worst, gap)
            assert gap <= 1e-10, f"case {i}: gap {gap:.3e}"
        assert worst < 1e-10

    def test_far_otm_call_returns_zero(self):
        # Strike beyond the twelve-sigma window: the truncated integral is
        # exactly zero and the omitted tail is far below tol.
        market = self.std()
        opt = OptionSpec("call", 100.0, 0.01)
        assert quadrature_price(market, opt).premium == 0.0

    def test_deterministic_limit_put(self):
        # sigma -> 0 collapses the terminal law onto the forward point.
        market = MarketParams.risk_neutral(1.0, 0.05, 0.02, 1e-12)
        opt = OptionSpec("put", 1.1, 1.0)
        expected = math.exp(-0.05) * (1.1 - math.exp(0.03))
        got = quadrature_price(market, opt).premium
        assert got == pytest.approx(expected, rel=1e-12)

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(ToleranceNotMet):
            quadrature_price(self.std(), OptionSpec("call", 1.0, 1.0), tol=1e-18)

    def test_mass_beyond_the_window_raises(self):
        # sigma*sqrt(T) = 30 puts the call's mass near z = 30, far past the
        # twelve-sigma window: the bound reports it rather than a premium of
        # ~0 against a true 0.98.
        market = MarketParams.risk_neutral(1.0, 0.05, 0.02, 30.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ToleranceNotMet):
                quadrature_price(market, OptionSpec("call", 1.0, 1.0))

    @pytest.mark.parametrize("strike", [500.0, 1000.0, 1500.0])
    def test_tol_scales_with_strike(self, strike):
        # Deep in-the-money puts: the certified error bound grows with the
        # premium (4.3e-10 .. 1.3e-9 here), so an absolute 1e-10 would
        # raise ToleranceNotMet on a valid input.
        market = MarketParams.risk_neutral(1.0, 0.05, 0.02, 0.3)
        opt = OptionSpec("put", strike, 1.0)
        got = quadrature_price(market, opt)
        assert got.diagnostics["abs_error_bound"] <= 1e-10 * strike
        exact = closed_form_price(market, opt).premium
        assert abs(got.premium - exact) <= 1e-10 * strike

    def test_tol_validation(self):
        with pytest.raises(DomainError):
            quadrature_price(self.std(), OptionSpec("call", 1.0, 1.0), tol=0.0)

    def test_physical_measure_rejected(self):
        physical = MarketParams(u0=1.0, drift_d=0.05, drift_f=0.02, sigma=0.2)
        with pytest.raises(MeasureError):
            quadrature_price(physical, OptionSpec("call", 1.0, 1.0))

    @given(
        u0=st.floats(min_value=0.5, max_value=2.0),
        moneyness=st.floats(min_value=0.5, max_value=2.0),
        sigma=st.floats(min_value=0.05, max_value=0.6),
        expiry=st.floats(min_value=0.1, max_value=5.0),
        r_d=st.floats(min_value=-0.01, max_value=0.1),
        r_f=st.floats(min_value=-0.01, max_value=0.1),
        kind=st.sampled_from(["call", "put"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_error_bound_covers_error(self, u0, moneyness, sigma, expiry, r_d, r_f, kind):
        # Over the battery's domain, deep out-of-the-money premiums included,
        # the reported bound covers the distance to the closed form.  The
        # reference is evaluated at 40 digits: in floats the closed form's
        # two legs cancel on tiny premiums, costing up to ~1e-11 relative.
        market = MarketParams.risk_neutral(u0, r_d, r_f, sigma)
        opt = OptionSpec(kind, moneyness * u0, expiry)
        got = quadrature_price(market, opt)
        with mpmath.workdps(40):
            sd = mpmath.mpf(sigma) * mpmath.sqrt(expiry)
            d1 = (mpmath.log(mpmath.mpf(u0) / opt.strike)
                  + (mpmath.mpf(r_d) - r_f + mpmath.mpf(sigma) ** 2 / 2) * expiry) / sd
            s = 1 if kind == "call" else -1
            exact = s * (u0 * mpmath.exp(-mpmath.mpf(r_f) * expiry) * mpmath.ncdf(s * d1)
                         - opt.strike * mpmath.exp(-mpmath.mpf(r_d) * expiry)
                         * mpmath.ncdf(s * (d1 - sd)))
            error = float(abs(got.premium - exact))
        bound = got.diagnostics["abs_error_bound"]
        assert 0.0 < bound <= 1e-10 * max(1.0, u0, opt.strike)
        assert error <= bound, f"error {error:.3e} beyond bound {bound:.3e}"

    @given(
        market=market_strategy,
        strike_ratio=st.floats(min_value=0.5, max_value=2.0),
        kind=st.sampled_from(["call", "put"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_agreement_property(self, market, strike_ratio, kind):
        opt = OptionSpec(kind, market.u0 * strike_ratio, 1.0)
        reference = closed_form_price(market, opt).premium
        got = quadrature_price(market, opt).premium
        assert abs(got - reference) <= max(1e-10, 1e-10 * market.u0), (
            f"quadrature deviates {got - reference:.3e} for {opt} under "
            f"u0={market.u0}, sigma={market.sigma}"
        )


class TestMonteCarlo:
    def std(self):
        return MarketParams.risk_neutral(1.0, 0.05, 0.02, 0.2)

    def test_within_three_standard_errors(self):
        opt = OptionSpec("call", 1.0, 1.0)
        result = mc_price(self.std(), opt, n_paths=200_000, seed=7)
        z = (result.premium - STD_CALL) / result.std_error
        assert abs(z) < 3.0, f"MC z-score {z:.2f}"
        assert result.method == "monte_carlo"
        assert result.diagnostics["antithetic"] is True
        assert result.diagnostics["n_samples"] == 100_000

    def test_antithetic_shrinks_standard_error(self):
        # Pairing each draw with its mirror image cuts the error on this
        # payoff for every one of thirty seeds, not merely on average.
        opt = OptionSpec("call", 1.0, 1.0)
        wins = 0
        for seed in range(30):
            with_pairs = mc_price(
                self.std(), opt, n_paths=20_000, seed=seed, antithetic=True
            )
            without = mc_price(
                self.std(), opt, n_paths=20_000, seed=seed, antithetic=False
            )
            if with_pairs.std_error < without.std_error:
                wins += 1
        assert wins == 30, f"antithetic smaller in only {wins}/30 seeds"

    def test_martingale_check_via_tiny_strike(self):
        # A strike of 1e-12 makes the discounted payoff the forward itself,
        # so the mean must hit u0 e^{-rf T} within Monte Carlo error.
        market = self.std()
        opt = OptionSpec("call", 1e-12, 1.0)
        result = mc_price(market, opt, n_paths=1_000_000, seed=5)
        expected = market.u0 * math.exp(-market.drift_f)
        z = (result.premium - expected) / result.std_error
        assert abs(z) < 4.0, f"martingale z-score {z:.2f}"

    def test_partitioned_run_reproducible(self):
        opt = OptionSpec("call", 1.0, 1.0)
        a = mc_price(self.std(), opt, n_paths=50_000, seed=3, n_partitions=4)
        b = mc_price(self.std(), opt, n_paths=50_000, seed=3, n_partitions=4)
        assert a.premium == b.premium
        assert a.std_error == b.std_error

    def test_seed_changes_the_estimate(self):
        opt = OptionSpec("call", 1.0, 1.0)
        a = mc_price(self.std(), opt, n_paths=10_000, seed=0)
        b = mc_price(self.std(), opt, n_paths=10_000, seed=1)
        assert a.premium != b.premium

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_paths=1, seed=0),
            dict(n_paths=10_001, seed=0, antithetic=True),
            dict(n_paths=0, seed=0, antithetic=False),
            dict(n_paths=100, seed=-1),
            dict(n_paths=100, seed=1.5),
            dict(n_paths=100, seed=0, n_partitions=0),
        ],
    )
    def test_invalid_arguments(self, kwargs):
        with pytest.raises(DomainError):
            mc_price(self.std(), OptionSpec("call", 1.0, 1.0), **kwargs)

    def test_physical_measure_rejected(self):
        physical = MarketParams(u0=1.0, drift_d=0.05, drift_f=0.02, sigma=0.2)
        with pytest.raises(MeasureError):
            mc_price(physical, OptionSpec("call", 1.0, 1.0), n_paths=100, seed=0)

    def test_antithetic_needs_two_pairs(self):
        # One pair is one sample and leaves ddof=1 no degree of freedom.
        opt = OptionSpec("call", 1.0, 1.0)
        with pytest.raises(DomainError):
            mc_price(self.std(), opt, n_paths=2, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            two_pairs = mc_price(self.std(), opt, n_paths=4, seed=0)
            two_plain = mc_price(self.std(), opt, n_paths=2, seed=0, antithetic=False)
        assert two_pairs.diagnostics["n_samples"] == 2
        assert math.isfinite(two_pairs.std_error)
        assert math.isfinite(two_plain.std_error)


class TestPde:
    def std(self):
        return MarketParams.risk_neutral(1.0, 0.05, 0.02, 0.2)

    def test_standard_case_relative_error(self):
        opt = OptionSpec("call", 1.0, 1.0)
        result = pde_price(self.std(), opt)
        assert abs(result.premium - STD_CALL) / STD_CALL < 1e-4
        assert result.method == "pde"
        assert result.diagnostics["residual"] < 1e-6
        assert result.diagnostics["n_points"] == 1601

    def test_put_case(self):
        opt = OptionSpec("put", 1.0, 1.0)
        result = pde_price(self.std(), opt)
        assert abs(result.premium - STD_PUT) / STD_PUT < 1e-4

    def test_battery_agreement(self):
        for row in BATTERY:
            market, option = battery_case(row)
            reference = closed_form_price(market, option).premium
            got = pde_price(market, option, default_pde_grid(market, option)).premium
            rel = abs(got - reference) / reference
            assert rel <= 1e-4, f"PDE relative error {rel:.3e} on {row}"

    def test_tiny_sigma_deterministic_limit(self):
        # Near-zero volatility turns the equation into pure transport plus
        # discounting; the deep-ITM call must land on discounted intrinsic.
        market = MarketParams.risk_neutral(1.0, 0.05, 0.02, 1e-8)
        opt = OptionSpec("call", 0.5, 1.0)
        grid = FPGridSpec(
            math.log(0.5) - 1.0, math.log(2.0) + 1.0, 1601, dt_step=1.0 / 400
        )
        expected = math.exp(-0.05) * (math.exp(0.03) - 0.5)
        got = pde_price(market, opt, grid).premium
        assert abs(got - expected) / expected < 1e-6

    def test_narrow_grid_around_strike_rejected(self):
        market = self.std()
        opt = OptionSpec("call", 1.0, 1.0)
        grid = FPGridSpec(-1.0, 1.0, 801, dt_step=1.0 / 400)  # 5 sigma only
        with pytest.raises(GridTooNarrow):
            pde_price(market, opt, grid)

    def test_spot_outside_grid_rejected(self):
        market = self.std().with_spot(100.0)
        opt = OptionSpec("call", 100.0, 1.0)
        grid = FPGridSpec(-2.0, 2.0, 801, dt_step=1.0 / 400)
        with pytest.raises(GridTooNarrow):
            pde_price(market, opt, grid)

    def test_spot_in_outer_tenth_rejected(self):
        market = self.std()
        opt = OptionSpec("call", 1.0, 1.0)
        # Strike clears the eight-sigma rule but ln u0 = 0 hugs the edge.
        grid = FPGridSpec(-0.2, 3.0, 801, dt_step=1.0 / 400)
        with pytest.raises(GridTooNarrow):
            pde_price(market, opt, grid)

    @pytest.mark.parametrize(
        "kind, sigma",
        [
            pytest.param("call", 30.0, id="call"),
            pytest.param("put", 30.0, id="put"),
            *(
                pytest.param(kind, sigma, id=f"{kind}-sigma{sigma:g}")
                for sigma in (50.0, 100.0)
                for kind in ("call", "put")
            ),
        ],
    )
    def test_grid_past_exp_overflow_prices(self, kind, sigma):
        # sigma = 30 puts the default grid's upper bound near 750 > ln(float
        # max).  The put pays nothing up there, so e^y never enters the solve,
        # and the call is replicated from the put.  At sigma = 50 and 100 the
        # grid spans more than +-1,400 around the log forward, past where a
        # scale e^(-(y - y0)/2) overflows.
        market = MarketParams.risk_neutral(1.0, 0.05, 0.02, sigma)
        opt = OptionSpec(kind, 1.0, 1.0)
        assert default_pde_grid(market, opt).x_max > math.log(sys.float_info.max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pde_price(market, opt).premium
        assert got == pytest.approx(closed_form_price(market, opt).premium, rel=1e-6)

    def test_values_overflowing_near_exp_limit_raise(self):
        # Spot and strike near e^709.6: the put's values, up to ~0.86 K, pass
        # float max when a Crank-Nicolson step doubles them.  That is
        # NumericalError, with no floating-point warning on the way.
        market = MarketParams.risk_neutral(1.5e308, 0.05, 0.02, 0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kind in ("call", "put"):
                with pytest.raises(NumericalError, match="overflow"):
                    pde_price(market, OptionSpec(kind, 1.5e308, 1.0))

    def test_grid_near_exp_limit_prices(self):
        # y_max = 709, just below ln(float max), at sigma = 30: no value of the
        # solve comes near e^709, for either kind.
        market = MarketParams.risk_neutral(1.0, 0.05, 0.02, 30.0)
        grid = FPGridSpec(-700.0, 709.0, 1601, dt_step=1.0 / 400)
        for kind in ("call", "put"):
            opt = OptionSpec(kind, 1.0, 1.0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = pde_price(market, opt, grid).premium
            assert got == pytest.approx(closed_form_price(market, opt).premium, rel=1e-6)

    @pytest.mark.parametrize("sigma, half", [(0.2, 2.0), (30.0, 750.0), (0.2, 250.0)])
    def test_end_values_solve_the_discrete_equation(self, sigma, half):
        # 1 and e^y, of which the put's end values K - e^y and 0 (and so the
        # part Phi that the solve subtracts) are made, are annihilated by the
        # interior stencil, so the end values solve the scheme: on a fine
        # grid, past ln(float max), and with steps h = 5.
        grid = FPGridSpec(-half, half, 101, dt_step=0.01)
        y = grid.points()
        stencil = pricing._put_stencil(sigma, float(y[1] - y[0]))
        bands = [np.full(y.size, c) for c in stencil]
        for band in bands:
            band[0] = band[-1] = 0.0
        for f in (np.ones_like(y), np.exp(y - y[-1])):
            applied = apply_tridiag(*bands, f)
            terms = apply_tridiag(*map(np.abs, bands), f)
            # Rows whose three values are normal floats (e^y underflows far down).
            normal = np.flatnonzero(f[:-2] >= np.finfo(float).tiny) + 1
            assert np.all(np.abs(applied[normal]) <= 1e-14 * terms[normal])

    @given(
        sigma=st.floats(min_value=0.05, max_value=3.0),
        expiry=st.floats(min_value=0.1, max_value=5.0),
        moneyness=st.floats(min_value=0.5, max_value=2.0),
        r_d=st.floats(min_value=-0.05, max_value=0.1),
        r_f=st.floats(min_value=-0.05, max_value=0.1),
        kind=st.sampled_from(["call", "put"]),
    )
    @settings(max_examples=120, deadline=None)
    def test_error_within_stated_domain(self, sigma, expiry, moneyness, r_d, r_f, kind):
        # The route's stated domain on default grids, deep out-of-the-money
        # premiums included.  The error is relative to the premium floored at
        # 1% of max(spot, strike), where a call replicated from a put loses its
        # digits to cancellation.  2,500 random draws stayed under 9.5e-5, inside
        # criterion 5's 1e-4, but the domain's corners do not: a search
        # found 1.21e-4 at sigma 1.23, T = 5, K/u0 = 0.5, rd 0.1, rf -0.05
        # (and its mirror-image call), the grid's O(h^2) error.
        market = MarketParams.risk_neutral(1.0, r_d, r_f, sigma)
        opt = OptionSpec(kind, moneyness, expiry)
        reference = closed_form_price(market, opt).premium
        got = pde_price(market, opt).premium
        floored = abs(got - reference) / max(reference, 0.01 * max(1.0, moneyness))
        assert floored <= 1.5e-4, f"floored PDE error {floored:.3e}"

    def solve_all_nodes(self, market, opt, grid):
        """pde_price's premium, and the node values of W, the undiscounted put,
        from the solve that pde_price reads, undone on every node."""
        premium = pde_price(market, opt, grid).premium
        y0 = self.log_forward(market, opt)
        n_steps = grid.n_steps(opt.expiry)
        values, _ = pricing._solve_put(
            market.sigma, opt.strike, grid.points(), y0, opt.expiry, n_steps, slice(None)
        )
        return premium, values

    @staticmethod
    def premium_from_put(market, opt, w):
        """The premium for W(T, y0) = w: e^{-rd T} w, plus the forward minus
        the discounted strike for a call."""
        disc_d = math.exp(-market.drift_d * opt.expiry)
        premium = disc_d * w
        if opt.kind == "call":
            premium += market.u0 * math.exp(-market.drift_f * opt.expiry) - opt.strike * disc_d
        return premium

    @staticmethod
    def log_forward(market, opt):
        return math.log(market.u0) + (market.drift_d - market.drift_f) * opt.expiry

    @pytest.mark.parametrize("kind", ["call", "put"])
    def test_spot_on_a_node_reads_that_node(self, kind):
        # Equal rates put the log forward on ln u0 = 0.
        market = MarketParams.risk_neutral(1.0, 0.03, 0.03, 0.2)
        opt = OptionSpec(kind, 1.1, 1.0)
        grid = FPGridSpec(-2.0, 2.0, 801, dt_step=1.0 / 400)
        assert grid.points()[400] == self.log_forward(market, opt) == 0.0
        premium, values = self.solve_all_nodes(market, opt, grid)
        assert same_bits(premium, self.premium_from_put(market, opt, values[400]))

    @pytest.mark.parametrize("n_points", [3, 4])
    def test_small_grid_reads_the_interpolant_through_every_node(self, n_points):
        # Three nodes give the parabola, four the cubic, through all of them.
        market = self.std().with_spot(math.exp(0.3))
        opt = OptionSpec("call", 1.0, 1.0)
        grid = FPGridSpec(-2.0, 2.0, n_points, dt_step=1.0 / 400)
        premium, values = self.solve_all_nodes(market, opt, grid)
        coeffs = np.polyfit(grid.points(), values, n_points - 1)
        w = np.polyval(coeffs, self.log_forward(market, opt))
        expected = self.premium_from_put(market, opt, w)
        assert premium == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_readout_agrees_with_cubic_spline(self):
        # The four-node readout against a not-a-knot cubic spline through
        # every node, on the same solved values: the two interpolants differ
        # by far less than the grid's own error.
        from scipy.interpolate import CubicSpline

        for row in BATTERY:
            market, option = battery_case(row)
            grid = default_pde_grid(market, option)
            premium, values = self.solve_all_nodes(market, option, grid)
            w = float(CubicSpline(grid.points(), values)(self.log_forward(market, option)))
            spline = self.premium_from_put(market, option, w)
            scale = max(spline, 0.01 * market.u0)
            assert abs(premium - spline) <= 1e-7 * scale, row

    @pytest.mark.parametrize("n_time_steps", [0, -3])
    def test_default_grid_needs_a_time_step(self, n_time_steps):
        opt = OptionSpec("call", 1.0, 1.0)
        with pytest.raises(DomainError, match="n_time_steps"):
            default_pde_grid(self.std(), opt, n_time_steps=n_time_steps)

    def test_reports_the_time_steps_asked_for(self):
        # Over T = 5, t / (t / 18,869) rounds above 18,869 by more than 1e-12.
        opt = OptionSpec("put", 1.0, 5.0)
        grid = default_pde_grid(self.std(), opt, n_points=201, n_time_steps=18_869)
        assert pde_price(self.std(), opt, grid).diagnostics["n_time_steps"] == 18_869

    def test_default_grid_satisfies_guards(self):
        for row in BATTERY:
            market, option = battery_case(row)
            grid = default_pde_grid(market, option)
            x = grid.points()
            width = market.sigma * math.sqrt(option.expiry)
            ln_k = math.log(option.strike)
            assert ln_k - x[0] >= 8.0 * width
            assert x[-1] - ln_k >= 8.0 * width

    def test_physical_measure_rejected(self):
        physical = MarketParams(u0=1.0, drift_d=0.05, drift_f=0.02, sigma=0.2)
        with pytest.raises(MeasureError):
            pde_price(physical, OptionSpec("call", 1.0, 1.0))


class TestPriceResult:
    def test_json_round_trip(self):
        market = MarketParams.risk_neutral(1.0, 0.05, 0.02, 0.2)
        result = closed_form_price(market, OptionSpec("call", 1.0, 1.0))
        data = json.loads(json.dumps(result.to_json_dict()))
        assert data == result.to_json_dict()
        assert data["premium"] == result.premium
        assert data["method"] == result.method
        assert data["d1"] == result.diagnostics["d1"]
        assert data["d2"] == result.diagnostics["d2"]

    def test_json_keys_are_fixed(self):
        market = MarketParams.risk_neutral(1.0, 0.05, 0.02, 0.2)
        result = closed_form_price(market, OptionSpec("call", 1.0, 1.0))
        assert set(result.to_json_dict()) == {
            "premium",
            "method",
            "std_error",
            "d1",
            "d2",
        }

    def test_mc_round_trip_leaves_d_fields_null(self):
        market = MarketParams.risk_neutral(1.0, 0.05, 0.02, 0.2)
        result = mc_price(market, OptionSpec("call", 1.0, 1.0), n_paths=100, seed=0)
        data = json.loads(json.dumps(result.to_json_dict()))
        assert data["d1"] is None and data["d2"] is None
        assert data["premium"] == result.premium
        assert data["std_error"] == result.std_error

    def test_unknown_method_rejected(self):
        with pytest.raises(DomainError):
            PriceResult(premium=1.0, method="telepathy")

    def test_negative_premium_rejected(self):
        with pytest.raises(NumericalError):
            PriceResult(premium=-1e-3, method="closed_form")

    def test_non_finite_premium_rejected(self):
        with pytest.raises(NumericalError):
            PriceResult(premium=math.nan, method="closed_form")

    def test_tiny_negative_roundoff_tolerated(self):
        result = PriceResult(premium=-1e-12, method="monte_carlo")
        assert result.premium == -1e-12


class TestOptionSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="straddle", strike=1.0, expiry=1.0),
            dict(kind="call", strike=0.0, expiry=1.0),
            dict(kind="call", strike=1.0, expiry=0.0),
            dict(kind="put", strike=math.inf, expiry=1.0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            OptionSpec(**kwargs)

    def test_payoffs(self):
        call = OptionSpec("call", 1.0, 1.0)
        put = OptionSpec("put", 1.0, 1.0)
        rates = np.array([0.7, 1.3])
        assert _payoff_in_place(call, rates.copy()) == pytest.approx([0.0, 0.3])
        assert _payoff_in_place(put, rates.copy()) == pytest.approx([0.3, 0.0])
        arr = np.array([0.5, 1.5])
        assert _payoff_in_place(call, arr) is arr
        assert np.array_equal(arr, np.array([0.0, 0.5]))


class TestScaleInvariance:
    @given(scale=st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=100, deadline=None)
    def test_premium_homogeneity(self, scale):
        # Scaling spot and strike together scales the premium: prices are
        # degree-one homogeneous in the currency unit.
        base = MarketParams.risk_neutral(1.0, 0.05, 0.02, 0.2)
        call = closed_form_price(base, OptionSpec("call", 1.1, 1.0)).premium
        scaled = closed_form_price(
            base.with_spot(scale), OptionSpec("call", 1.1 * scale, 1.0)
        ).premium
        assert scaled == pytest.approx(scale * call, rel=1e-12), (
            f"homogeneity broken at scale {scale}"
        )

    def test_d1_d2_invariant_under_joint_scaling(self):
        base = MarketParams.risk_neutral(1.0, 0.05, 0.02, 0.2)
        for scale in (1e-3, 0.1, 10.0, 1e3):
            a = _d1_d2(base, 1.1, 1.0)
            b = _d1_d2(base.with_spot(scale), 1.1 * scale, 1.0)
            assert a[0] == pytest.approx(b[0], abs=1e-12)
            assert a[1] == pytest.approx(b[1], abs=1e-12)

    def test_quadrature_scaled_market(self):
        big = MarketParams.risk_neutral(1000.0, 0.05, 0.02, 0.2)
        opt = OptionSpec("call", 1000.0, 1.0)
        got = quadrature_price(big, opt, tol=1e-7).premium
        assert abs(got - 1000.0 * STD_CALL) < 1e-7 * 1000.0
