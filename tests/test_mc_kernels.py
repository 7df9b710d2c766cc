"""Chunked, in-place Monte Carlo kernels against their one-shot references.

``mc_price`` and ``simulate_paths`` draw each partition's stream a chunk at
a time into reused buffers and transform it in place.  The references
below are the whole-array forms those kernels replaced; every seeded
output must match them to the bit.
"""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from entropic_fx import (
    MarketParams,
    OptionSpec,
    mc_price,
    partition_rng,
    simulate_paths,
)
from entropic_fx import dynamics
from entropic_fx.dynamics import _CHUNK, _partition_sizes

from conftest import same_bits

MARKET = MarketParams.risk_neutral(1.1, 0.04, 0.015, 0.3)
PHYSICAL = MarketParams(u0=0.9, drift_d=0.03, drift_f=0.05, sigma=0.25)


def reference_log_paths(params, horizon, n_steps, n_paths, seed, n_partitions):
    """simulate_paths' log_paths from one standard_normal per partition."""
    dt = horizon / n_steps
    step_mean = params.log_drift * dt
    step_sd = params.sigma * math.sqrt(dt)
    x0 = math.log(params.u0)
    log_paths = np.empty((n_paths, n_steps + 1))
    log_paths[:, 0] = x0
    offsets = np.concatenate([[0], np.cumsum(_partition_sizes(n_paths, n_partitions))])
    for k in range(n_partitions):
        lo, hi = offsets[k], offsets[k + 1]
        if lo == hi:
            continue
        z = partition_rng(seed, k).standard_normal((hi - lo, n_steps))
        increments = step_mean + step_sd * z
        log_paths[lo:hi, 1:] = x0 + np.cumsum(increments, axis=1)
    return log_paths


def reference_mc_price(params, opt, n_paths, seed, antithetic, n_steps, n_partitions):
    """(premium, std_error) of mc_price from whole-array temporaries."""
    t = opt.expiry
    discount = math.exp(-params.drift_d * t)
    if n_steps > 1:
        log_paths = reference_log_paths(params, t, n_steps, n_paths, seed, n_partitions)
        samples = opt.payoff(np.exp(log_paths[:, -1]))
    else:
        mean = math.log(params.u0) + params.log_drift * t
        sd = params.sigma * math.sqrt(t)
        n_draws = n_paths // 2 if antithetic else n_paths
        sizes = _partition_sizes(n_draws, n_partitions)
        z = np.concatenate(
            [partition_rng(seed, k).standard_normal(n) for k, n in enumerate(sizes)]
        )
        if antithetic:
            up = opt.payoff(np.exp(mean + sd * z))
            dn = opt.payoff(np.exp(mean - sd * z))
            samples = 0.5 * (up + dn)
        else:
            samples = opt.payoff(np.exp(mean + sd * z))
    n = samples.size
    premium = discount * float(np.mean(samples))
    std_error = discount * float(np.std(samples, ddof=1)) / math.sqrt(n)
    return premium, std_error


def assert_mc_matches_reference(opt, n_paths, seed, antithetic, n_steps, n_partitions):
    got = mc_price(
        MARKET, opt, n_paths, seed, antithetic=antithetic, n_steps=n_steps,
        n_partitions=n_partitions,
    )
    premium, std_error = reference_mc_price(
        MARKET, opt, n_paths, seed, antithetic, n_steps, n_partitions
    )
    assert same_bits(got.premium, premium)
    assert same_bits(got.std_error, std_error)


# Draw counts on each side of a chunk boundary, and several chunks plus a tail.
DRAWS = [_CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7]
# Strikes near the money and far out of it, so both payoff branches show.
OPTIONS = [
    OptionSpec("call", 1.05, 0.7),
    OptionSpec("put", 1.2, 2.0),
    OptionSpec("call", 3.0, 0.5),
    OptionSpec("put", 0.4, 0.5),
]


class TestMcPriceBitwise:
    @pytest.mark.parametrize("n_partitions", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n_draws", DRAWS)
    @pytest.mark.parametrize("antithetic", [True, False])
    @pytest.mark.parametrize("kind", ["call", "put"])
    def test_single_step(self, kind, antithetic, n_draws, n_partitions):
        opt = OptionSpec(kind, 1.05, 0.7)
        n_paths = 2 * n_draws if antithetic else n_draws
        seed = 1000 * n_partitions + n_draws % 97
        assert_mc_matches_reference(opt, n_paths, seed, antithetic, 1, n_partitions)

    @pytest.mark.parametrize("opt", OPTIONS)
    @pytest.mark.parametrize("antithetic", [True, False])
    def test_option_battery(self, opt, antithetic):
        assert_mc_matches_reference(opt, 20_002, 17, antithetic, 1, 3)

    @pytest.mark.parametrize("n_partitions", [1, 2, 5])
    @pytest.mark.parametrize("n_steps", [2, 12])
    @pytest.mark.parametrize("kind", ["call", "put"])
    def test_multi_step(self, kind, n_steps, n_partitions):
        opt = OptionSpec(kind, 1.05, 0.7)
        assert_mc_matches_reference(opt, _CHUNK // n_steps + 3, 23, False, n_steps, n_partitions)

    @pytest.mark.parametrize(
        "n_paths, antithetic, n_partitions",
        [(4, True, 3), (6, True, 8), (2, False, 5), (7, False, 11)],
    )
    def test_more_partitions_than_draws(self, n_paths, antithetic, n_partitions):
        opt = OptionSpec("call", 1.0, 1.0)
        assert_mc_matches_reference(opt, n_paths, 5, antithetic, 1, n_partitions)


class TestSimulatePathsBitwise:
    @pytest.mark.parametrize("n_partitions", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n_steps", [1, 3, 52])
    def test_chunk_boundaries(self, n_steps, n_partitions):
        rows = _CHUNK // n_steps
        for n_paths in (rows - 1, rows, rows + 1, 3 * rows + 7):
            got = simulate_paths(PHYSICAL, 1.5, n_steps, n_paths, 31, n_partitions)
            want = reference_log_paths(PHYSICAL, 1.5, n_steps, n_paths, 31, n_partitions)
            assert same_bits(got.log_paths, want), (n_paths, n_steps)

    @pytest.mark.parametrize("n_partitions", [1, 2, 5])
    def test_more_steps_than_a_chunk(self, n_partitions):
        # One row per chunk: each row is drawn and summed on its own.
        n_steps = _CHUNK + 5
        got = simulate_paths(PHYSICAL, 2.0, n_steps, 7, 8, n_partitions)
        want = reference_log_paths(PHYSICAL, 2.0, n_steps, 7, 8, n_partitions)
        assert same_bits(got.log_paths, want)

    @pytest.mark.parametrize("n_paths, n_partitions", [(1, 3), (3, 8), (5, 6)])
    def test_more_partitions_than_paths(self, n_paths, n_partitions):
        got = simulate_paths(PHYSICAL, 1.0, 4, n_paths, 2, n_partitions)
        want = reference_log_paths(PHYSICAL, 1.0, 4, n_paths, 2, n_partitions)
        assert same_bits(got.log_paths, want)


class TestChunkedStream:
    # The kernels' identity with their references rests on this numpy
    # behaviour: a Generator stream drawn in pieces with out= gives the
    # numbers of one draw, in C order for 2-D blocks of rows.
    @pytest.mark.parametrize("n", [1, 100, _CHUNK - 1, _CHUNK + 1, 3 * _CHUNK + 7])
    def test_chunks_equal_one_draw(self, n):
        whole = partition_rng(11, 2).standard_normal(n)
        rng = partition_rng(11, 2)
        buf = np.empty(_CHUNK)
        pieces = []
        for a in range(0, n, _CHUNK):
            part = buf[: min(_CHUNK, n - a)]
            rng.standard_normal(out=part)
            pieces.append(part.copy())
        assert same_bits(np.concatenate(pieces), whole)

    def test_row_blocks_equal_one_draw(self):
        whole = partition_rng(4, 0).standard_normal((10, 7))
        rng = partition_rng(4, 0)
        buf = np.empty((3, 7))
        for a in range(0, 10, 3):
            block = buf[: min(3, 10 - a)]
            rng.standard_normal(out=block)
            assert same_bits(block, whole[a : a + 3])


class _RecordingPool(ThreadPoolExecutor):
    created = []

    def __init__(self, max_workers=None, **kwargs):
        type(self).created.append(max_workers)
        super().__init__(max_workers=max_workers, **kwargs)


@pytest.fixture
def recording_pool(monkeypatch):
    _RecordingPool.created = []
    monkeypatch.setattr(dynamics, "ThreadPoolExecutor", _RecordingPool)
    return _RecordingPool.created


class TestPartitionRunner:
    def test_mc_price_runs_partitions_on_the_pool(self, recording_pool):
        opt = OptionSpec("call", 1.0, 1.0)
        mc_price(MARKET, opt, n_paths=1000, seed=3, n_partitions=2)
        assert len(recording_pool) == 1

    def test_one_partition_runs_inline(self, recording_pool):
        opt = OptionSpec("call", 1.0, 1.0)
        mc_price(MARKET, opt, n_paths=1000, seed=3)
        simulate_paths(PHYSICAL, 1.0, 3, 100, seed=3)
        assert recording_pool == []

    @pytest.mark.parametrize("cores, expected", [(2, 2), (3, 3), (None, 1)])
    def test_workers_capped_at_core_count(self, monkeypatch, recording_pool, cores, expected):
        def run(cpu_count):
            monkeypatch.setattr(dynamics.os, "cpu_count", lambda: cpu_count)
            mc = mc_price(MARKET, OptionSpec("put", 1.1, 0.5), 5000, 9, n_partitions=5)
            paths = simulate_paths(PHYSICAL, 1.0, 6, 501, seed=9, n_partitions=5)
            return mc, paths

        uncapped_mc, uncapped_paths = run(64)
        capped_mc, capped_paths = run(cores)
        assert recording_pool == [5, 5, expected, expected]
        assert same_bits(capped_mc.premium, uncapped_mc.premium)
        assert same_bits(capped_mc.std_error, uncapped_mc.std_error)
        assert same_bits(capped_paths.log_paths, uncapped_paths.log_paths)

    def test_many_partitions_start_few_workers(self, monkeypatch, recording_pool):
        # Ten thousand partitions on a two-core machine: two workers.
        monkeypatch.setattr(dynamics.os, "cpu_count", lambda: 2)
        paths = simulate_paths(PHYSICAL, 1.0, 2, 3, seed=1, n_partitions=10_000)
        assert recording_pool == [2]
        want = reference_log_paths(PHYSICAL, 1.0, 2, 3, 1, 10_000)
        assert same_bits(paths.log_paths, want)

    def test_one_item_on_three_partitions_starts_no_pool(self, recording_pool):
        # Only partition 0 can be non-empty, so it runs inline.
        paths = simulate_paths(PHYSICAL, 1.0, 2, 1, seed=4, n_partitions=3)
        assert recording_pool == []
        want = reference_log_paths(PHYSICAL, 1.0, 2, 1, 4, 3)
        assert same_bits(paths.log_paths, want)

    def test_worker_error_propagates(self, monkeypatch):
        def failing_rng(seed, k):
            if k == 1:
                raise RuntimeError("stream 1 failed")
            return partition_rng(seed, k)

        monkeypatch.setattr(dynamics, "partition_rng", failing_rng)
        with pytest.raises(RuntimeError, match="stream 1 failed"):
            simulate_paths(PHYSICAL, 1.0, 2, 10, seed=1, n_partitions=3)
