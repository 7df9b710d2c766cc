import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropic_fx import (
    PHYSICAL,
    RISK_NEUTRAL,
    DomainError,
    MarketParams,
    PathSet,
    TransitionDensity,
    block_rng,
    log_coordinate,
    paths_to_csv,
    simulate_paths,
    transition_density,
    transition_pdf,
)
from entropic_fx.dynamics import _CHUNK


class TestMarketParams:
    def test_valid_construction(self):
        p = MarketParams(u0=1.0, drift_d=0.05, drift_f=0.02, sigma=0.2)
        assert p.measure_tag == PHYSICAL
        assert p.log_drift == pytest.approx(0.05 - 0.02 - 0.02, abs=1e-15)

    def test_risk_neutral_constructor(self):
        p = MarketParams.risk_neutral(1.0, 0.05, 0.02, 0.2)
        assert p.measure_tag == RISK_NEUTRAL
        assert p.drift_d == 0.05 and p.drift_f == 0.02

    def test_with_spot_keeps_everything_else(self):
        p = MarketParams.risk_neutral(1.0, 0.05, 0.02, 0.2)
        q = p.with_spot(1000.0)
        assert q.u0 == 1000.0
        assert (q.drift_d, q.drift_f, q.sigma, q.measure_tag) == (
            p.drift_d,
            p.drift_f,
            p.sigma,
            p.measure_tag,
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(u0=0.0, drift_d=0.0, drift_f=0.0, sigma=0.2),
            dict(u0=-1.0, drift_d=0.0, drift_f=0.0, sigma=0.2),
            dict(u0=math.inf, drift_d=0.0, drift_f=0.0, sigma=0.2),
            dict(u0=1.0, drift_d=0.0, drift_f=0.0, sigma=0.0),
            dict(u0=1.0, drift_d=0.0, drift_f=0.0, sigma=-0.1),
            dict(u0=1.0, drift_d=math.nan, drift_f=0.0, sigma=0.2),
            dict(u0=1.0, drift_d=0.0, drift_f=0.0, sigma=0.2, measure_tag="real"),
        ],
    )
    def test_invalid_construction(self, kwargs):
        with pytest.raises(DomainError):
            MarketParams(**kwargs)


class TestLogCoordinate:
    def test_matches_log(self):
        assert log_coordinate(2.0) == math.log(2.0)

    def test_anchor_points(self):
        assert log_coordinate(1.0) == 0.0
        assert log_coordinate(math.e) == pytest.approx(1.0, abs=1e-15)

    @given(u=st.floats(min_value=1e-6, max_value=1e6), scale=st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=100, deadline=None)
    def test_rescaling_shifts_by_log_scale(self, u, scale):
        shifted = log_coordinate(scale * u)
        assert shifted == pytest.approx(
            log_coordinate(u) + math.log(scale), abs=1e-12
        )

    @pytest.mark.parametrize("u", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_nonpositive(self, u):
        with pytest.raises(DomainError):
            log_coordinate(u)


class TestTransitionDensity:
    def test_mean_and_variance(self):
        p = MarketParams(u0=1.0, drift_d=0.05, drift_f=0.02, sigma=0.2)
        td = transition_density(p, 0.25)
        assert td.log_mean == p.log_drift * 0.25
        assert td.log_var == p.sigma * p.sigma * 0.25
        assert td.dt == 0.25

    def test_equal_rates_leave_ito_drift(self):
        # With no rate differential and sigma = 0.2 over a unit step the
        # log increment is N(-0.02, 0.04).
        p = MarketParams(u0=1.0, drift_d=0.03, drift_f=0.03, sigma=0.2)
        td = transition_density(p, 1.0)
        assert td.log_mean == pytest.approx(-0.02, abs=1e-16)
        assert td.log_var == pytest.approx(0.04, abs=1e-16)

    def test_rate_gap_of_half_variance_centers_the_log(self):
        # drift_d - drift_f = sigma^2/2 cancels the Ito correction.
        p = MarketParams(u0=1.0, drift_d=0.02, drift_f=0.0, sigma=0.2)
        td = transition_density(p, 1.0)
        assert abs(td.log_mean) < 1e-16

    def test_composition_over_double_step(self):
        # Mean and variance are both linear in the step length.
        p = MarketParams(u0=1.0, drift_d=0.05, drift_f=0.02, sigma=0.2)
        one = transition_density(p, 0.25)
        two = transition_density(p, 0.5)
        assert two.log_mean == pytest.approx(2.0 * one.log_mean, rel=1e-15)
        assert two.log_var == pytest.approx(2.0 * one.log_var, rel=1e-15)

    def test_rejects_bad_dt(self):
        p = MarketParams(u0=1.0, drift_d=0.05, drift_f=0.02, sigma=0.2)
        for dt in (0.0, -1.0, math.inf):
            with pytest.raises(DomainError):
                transition_density(p, dt)

    def test_direct_construction_validation(self):
        with pytest.raises(DomainError):
            TransitionDensity(log_mean=0.0, log_var=0.0, dt=1.0)
        with pytest.raises(DomainError):
            TransitionDensity(log_mean=math.nan, log_var=1.0, dt=1.0)

    @given(scale=st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=100, deadline=None)
    def test_exact_scale_invariance(self, scale):
        # The transition law depends on the rate only through the ratio
        # u'/u, so rescaling the spot changes nothing — bit for bit.
        p = MarketParams(u0=1.0, drift_d=0.05, drift_f=0.02, sigma=0.2)
        td_a = transition_density(p, 0.5)
        td_b = transition_density(p.with_spot(scale), 0.5)
        assert td_a == td_b

    def test_pdf_integrates_to_one(self):
        p = MarketParams(u0=1.0, drift_d=0.05, drift_f=0.02, sigma=0.2)
        td = transition_density(p, 1.0)
        sd = math.sqrt(td.log_var)
        x = np.linspace(td.log_mean - 10 * sd, td.log_mean + 10 * sd, 4001)
        mass = np.trapezoid(transition_pdf(td, x), x)
        assert mass == pytest.approx(1.0, abs=1e-12)

    def test_pdf_scalar_and_array(self):
        p = MarketParams(u0=1.0, drift_d=0.05, drift_f=0.02, sigma=0.2)
        td = transition_density(p, 1.0)
        val = transition_pdf(td, td.log_mean)
        assert isinstance(val, float)
        assert val == pytest.approx(1.0 / math.sqrt(2 * math.pi * td.log_var))
        arr = transition_pdf(td, np.array([td.log_mean, td.log_mean + 0.1]))
        assert arr.shape == (2,)
        assert arr[0] == val


class TestSimulatePaths:
    def market(self):
        return MarketParams(u0=1.0, drift_d=0.05, drift_f=0.02, sigma=0.2)

    def test_shapes_and_start(self):
        paths = simulate_paths(self.market(), 1.0, 4, 13, seed=0)
        assert paths.log_paths.shape == (13, 5)
        assert paths.times[0] == 0.0 and paths.times[-1] == 1.0
        assert np.all(paths.log_paths[:, 0] == 0.0)
        assert paths.terminal_log.shape == (13,)

    def test_same_seed_reproduces_bitwise(self):
        a = simulate_paths(self.market(), 1.0, 10, 100, seed=42)
        b = simulate_paths(self.market(), 1.0, 10, 100, seed=42)
        assert np.array_equal(a.log_paths, b.log_paths)

    def test_different_seeds_differ(self):
        a = simulate_paths(self.market(), 1.0, 10, 100, seed=1)
        b = simulate_paths(self.market(), 1.0, 10, 100, seed=2)
        assert not np.array_equal(a.log_paths, b.log_paths)

    def test_partitioned_run_is_deterministic(self):
        # Threads fill disjoint blocks; two runs agree exactly.
        a = simulate_paths(self.market(), 1.0, 5, 101, seed=9, n_partitions=4)
        b = simulate_paths(self.market(), 1.0, 5, 101, seed=9, n_partitions=4)
        assert np.array_equal(a.log_paths, b.log_paths)

    def test_blocks_match_their_streams(self):
        # Rows [4b, 4b + 4) are block b, drawn whole from (seed, b); the
        # thread count changes which thread fills a block, not its draws.
        market = self.market()
        n_steps = _CHUNK // 4
        paths = simulate_paths(market, 1.0, n_steps, 10, seed=5, n_partitions=2)
        dt = 1.0 / n_steps
        step_mean = market.log_drift * dt
        step_sd = market.sigma * math.sqrt(dt)
        for b, size in enumerate([4, 4, 2]):
            z = block_rng(5, b).standard_normal((size, n_steps))
            expected = np.cumsum(step_mean + step_sd * z, axis=1)
            assert np.array_equal(
                paths.log_paths[4 * b : 4 * b + size, 1:], expected
            ), f"block {b} does not match its seeded stream"

    def test_more_partitions_than_paths(self):
        paths = simulate_paths(self.market(), 1.0, 2, 3, seed=0, n_partitions=8)
        assert paths.log_paths.shape == (3, 3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(horizon=0.0, n_steps=1, n_paths=1, seed=0),
            dict(horizon=-1.0, n_steps=1, n_paths=1, seed=0),
            dict(horizon=1.0, n_steps=0, n_paths=1, seed=0),
            dict(horizon=1.0, n_steps=1, n_paths=0, seed=0),
            dict(horizon=1.0, n_steps=1, n_paths=1, seed=-1),
            dict(horizon=1.0, n_steps=1, n_paths=1, seed=1.5),
            dict(horizon=1.0, n_steps=1, n_paths=1, seed=0, n_partitions=0),
        ],
    )
    def test_invalid_arguments(self, kwargs):
        with pytest.raises(DomainError):
            simulate_paths(self.market(), **kwargs)

    def test_terminal_moments_single_noise_scale(self):
        # With 200k paths the sample mean of ln u_T sits within four
        # standard errors of nu*T and the sample variance near sigma^2 T.
        market = self.market()
        t, n = 2.0, 200_000
        paths = simulate_paths(market, t, 1, n, seed=314)
        term = paths.terminal_log
        se_mean = market.sigma * math.sqrt(t) / math.sqrt(n)
        assert abs(term.mean() - market.log_drift * t) < 4 * se_mean
        var = term.var(ddof=1)
        se_var = market.sigma**2 * t * math.sqrt(2.0 / (n - 1))
        assert abs(var - market.sigma**2 * t) < 4 * se_var

    def test_multi_step_law_matches_single_step(self):
        # Exact increments: terminal-law moments cannot depend on n_steps.
        market = self.market()
        t, n = 1.0, 100_000
        one = simulate_paths(market, t, 1, n, seed=7).terminal_log
        many = simulate_paths(market, t, 50, n, seed=8).terminal_log
        se = market.sigma * math.sqrt(t) / math.sqrt(n)
        assert abs(one.mean() - many.mean()) < 8 * se

    def test_tiny_sigma_paths_are_deterministic_drift(self):
        market = MarketParams(u0=1.0, drift_d=0.05, drift_f=0.02, sigma=1e-12)
        paths = simulate_paths(market, 1.0, 10, 50, seed=3)
        drift_line = market.log_drift * paths.times
        assert np.max(np.abs(paths.log_paths - drift_line)) < 1e-9


class TestPathSetValidation:
    def test_times_must_start_at_zero(self):
        with pytest.raises(DomainError):
            PathSet(times=np.array([0.1, 1.0]), log_paths=np.zeros((2, 2)))

    def test_shape_mismatch(self):
        # One column per time, and a 1-D array is not a set of paths.
        for log_paths in (np.zeros((2, 3)), np.zeros(2)):
            with pytest.raises(DomainError):
                PathSet(times=np.array([0.0, 1.0]), log_paths=log_paths)

    def test_common_start_required(self):
        bad = np.zeros((2, 2))
        bad[1, 0] = 1.0
        with pytest.raises(DomainError):
            PathSet(times=np.array([0.0, 1.0]), log_paths=bad)


class TestPathsCsv:
    def test_header_and_shape(self):
        paths = simulate_paths(
            MarketParams(u0=1.0, drift_d=0.0, drift_f=0.0, sigma=0.2),
            1.0,
            2,
            3,
            seed=0,
        )
        lines = paths_to_csv(paths).splitlines()
        assert lines[0] == "time,path_0,path_1,path_2"
        assert len(lines) == 4  # header + n_steps + 1 rows

    def test_values_round_trip_exactly(self):
        paths = simulate_paths(
            MarketParams(u0=1.3, drift_d=0.05, drift_f=0.02, sigma=0.2),
            0.7,
            3,
            2,
            seed=11,
        )
        lines = paths_to_csv(paths).splitlines()[1:]
        for i, line in enumerate(lines):
            cells = [float(c) for c in line.split(",")]
            assert cells[0] == paths.times[i]
            assert cells[1:] == list(paths.log_paths[:, i])

    # paths_to_csv must match the per-value f"{v:.17g}" writer, byte for
    # byte.
    @staticmethod
    def per_value_csv(paths):
        lines = ["time," + ",".join(f"path_{j}" for j in range(len(paths.log_paths)))]
        for i, t in enumerate(paths.times):
            cells = [f"{t:.17g}"] + [f"{v:.17g}" for v in paths.log_paths[:, i]]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def test_matches_per_value_writer_on_extreme_values(self):
        tiny = np.finfo(float).smallest_subnormal
        huge = np.finfo(float).max
        paths = PathSet(
            times=np.array([0.0, tiny, 1e-310, 1.0, 1e308]),
            log_paths=np.array(
                [
                    [0.0, -0.0, tiny, -tiny, 1e-300],
                    [-0.0, 2.2250738585072014e-308, -1e-310, 0.1, -1e308],
                    [0.0, huge, -huge, 9.999999999999999e307, 1.0 / 3.0],
                ]
            ),
        )
        text = paths_to_csv(paths)
        assert text == self.per_value_csv(paths)
        assert "-0," in text

    def test_matches_per_value_writer_on_simulated_paths(self):
        paths = simulate_paths(
            MarketParams(u0=0.7, drift_d=0.03, drift_f=0.01, sigma=0.4),
            2.0,
            17,
            9,
            seed=5,
        )
        assert paths_to_csv(paths) == self.per_value_csv(paths)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=12,
        )
    )
    def test_matches_per_value_writer_on_any_finite_floats(self, values):
        paths = PathSet(
            times=np.arange(len(values), dtype=float),
            log_paths=np.array([values, [values[0]] + values[:0:-1]]),
        )
        assert paths_to_csv(paths) == self.per_value_csv(paths)
