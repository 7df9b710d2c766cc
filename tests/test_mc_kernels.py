"""Block-keyed, in-place Monte Carlo kernels against their one-shot references.

``mc_price`` and ``simulate_paths`` cut their draws into fixed blocks, draw
block b from ``block_rng(seed, b)`` into a block-sized buffer and transform
it in place, on however many threads ``n_partitions`` allows; ``mc_price``
then reduces each block to its moments and merges them in block order.  The
references below are the whole-array forms of the same streams, whose
samples are cut into the same blocks for their moments; every seeded output
must match them to the bit, whatever the thread count.
"""

import concurrent.futures
import math
import sys
import tracemalloc

import numpy as np
import pytest

from entropic_fx import (
    MarketParams,
    OptionSpec,
    block_rng,
    mc_price,
    simulate_paths,
)
from entropic_fx import dynamics
from entropic_fx.dynamics import _CHUNK

from conftest import same_bits

MARKET = MarketParams.risk_neutral(1.1, 0.04, 0.015, 0.3)
PHYSICAL = MarketParams(u0=0.9, drift_d=0.03, drift_f=0.05, sigma=0.25)


def block_normals(seed, n_items, n_draws):
    """(n_items, n_draws) standard normals, block b drawn whole from (seed, b)."""
    rows = max(1, _CHUNK // n_draws)
    return np.concatenate([
        block_rng(seed, b).standard_normal((min(rows, n_items - lo), n_draws))
        for b, lo in enumerate(range(0, n_items, rows))
    ])


def reference_log_paths(params, horizon, n_steps, n_paths, seed):
    """simulate_paths' log_paths from one standard_normal per block."""
    dt = horizon / n_steps
    step_mean = params.log_drift * dt
    step_sd = params.sigma * math.sqrt(dt)
    x0 = math.log(params.u0)
    log_paths = np.empty((n_paths, n_steps + 1))
    log_paths[:, 0] = x0
    increments = step_mean + step_sd * block_normals(seed, n_paths, n_steps)
    log_paths[:, 1:] = x0 + np.cumsum(increments, axis=1)
    return log_paths


def reference_samples(params, opt, n_paths, seed, antithetic):
    """mc_price's samples from whole-array temporaries."""
    t = opt.expiry
    mean = math.log(params.u0) + params.log_drift * t
    sd = params.sigma * math.sqrt(t)
    n_draws = n_paths // 2 if antithetic else n_paths
    z = block_normals(seed, n_draws, 1)[:, 0]

    def payoff(x):
        gain = x - opt.strike if opt.kind == "call" else opt.strike - x
        return np.maximum(gain, 0.0)

    if antithetic:
        up = payoff(np.exp(mean + sd * z))
        dn = payoff(np.exp(mean - sd * z))
        return 0.5 * (up + dn)
    return payoff(np.exp(mean + sd * z))


def merged_moments(samples, block_size):
    """(count, mean, sum of squared deviations) of samples, from the moments
    of each block_size slice merged in order by Chan, Golub & LeVeque's update."""
    n = 0
    for lo in range(0, samples.size, block_size):
        block = samples[lo : lo + block_size]
        n_b, mean_b = block.size, float(np.mean(block))
        m2_b = float(np.sum((block - mean_b) ** 2))
        if n == 0:
            n, mean, m2 = n_b, mean_b, m2_b
            continue
        delta = mean_b - mean
        total = n + n_b
        mean += delta * n_b / total
        m2 += m2_b + delta * delta * n * n_b / total
        n = total
    return n, mean, m2


def reference_mc_price(params, opt, n_paths, seed, antithetic):
    """(premium, std_error) of mc_price from whole-array temporaries."""
    discount = math.exp(-params.drift_d * opt.expiry)
    samples = reference_samples(params, opt, n_paths, seed, antithetic)
    n, mean, m2 = merged_moments(samples, _CHUNK)
    return discount * mean, discount * math.sqrt(m2 / (n - 1)) / math.sqrt(n)


def assert_mc_matches_reference(opt, n_paths, seed, antithetic, n_partitions):
    got = mc_price(
        MARKET, opt, n_paths, seed, antithetic=antithetic, n_partitions=n_partitions
    )
    premium, std_error = reference_mc_price(MARKET, opt, n_paths, seed, antithetic)
    assert same_bits(got.premium, premium)
    assert same_bits(got.std_error, std_error)


# Draw counts on each side of a block boundary, and several blocks plus a tail.
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
        assert_mc_matches_reference(opt, n_paths, seed, antithetic, n_partitions)

    @pytest.mark.parametrize("opt", OPTIONS)
    @pytest.mark.parametrize("antithetic", [True, False])
    def test_option_battery(self, opt, antithetic):
        assert_mc_matches_reference(opt, 20_002, 17, antithetic, 3)

    @pytest.mark.parametrize(
        "n_paths, antithetic, n_partitions",
        [(4, True, 3), (6, True, 8), (2, False, 5), (7, False, 11)],
    )
    def test_more_partitions_than_draws(self, n_paths, antithetic, n_partitions):
        # More threads than blocks: the one block runs as with one thread.
        opt = OptionSpec("call", 1.0, 1.0)
        assert_mc_matches_reference(opt, n_paths, 5, antithetic, n_partitions)


class TestSimulatePathsBitwise:
    @pytest.mark.parametrize("n_partitions", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n_steps", [1, 3, 52])
    def test_chunk_boundaries(self, n_steps, n_partitions):
        rows = _CHUNK // n_steps
        for n_paths in (rows - 1, rows, rows + 1, 3 * rows + 7):
            got = simulate_paths(PHYSICAL, 1.5, n_steps, n_paths, 31, n_partitions)
            want = reference_log_paths(PHYSICAL, 1.5, n_steps, n_paths, 31)
            assert same_bits(got.log_paths, want), (n_paths, n_steps)

    @pytest.mark.parametrize("n_partitions", [1, 2, 5])
    def test_more_steps_than_a_chunk(self, n_partitions):
        # One row per block: each row is drawn and summed on its own.
        n_steps = _CHUNK + 5
        got = simulate_paths(PHYSICAL, 2.0, n_steps, 7, 8, n_partitions)
        want = reference_log_paths(PHYSICAL, 2.0, n_steps, 7, 8)
        assert same_bits(got.log_paths, want)

    @pytest.mark.parametrize("n_paths, n_partitions", [(1, 3), (3, 8), (5, 6)])
    def test_more_partitions_than_paths(self, n_paths, n_partitions):
        got = simulate_paths(PHYSICAL, 1.0, 4, n_paths, 2, n_partitions)
        want = reference_log_paths(PHYSICAL, 1.0, 4, n_paths, 2)
        assert same_bits(got.log_paths, want)


class TestChunkedStream:
    # The kernels draw each block into an out= buffer and the references
    # return it whole; their identity rests on this numpy behaviour: draws
    # with out=, in one piece or several, give the numbers of one draw, in C
    # order for 2-D blocks of rows.
    @pytest.mark.parametrize("n", [1, 100, _CHUNK - 1, _CHUNK + 1, 3 * _CHUNK + 7])
    def test_chunks_equal_one_draw(self, n):
        whole = block_rng(11, 2).standard_normal(n)
        rng = block_rng(11, 2)
        buf = np.empty(_CHUNK)
        pieces = []
        for a in range(0, n, _CHUNK):
            part = buf[: min(_CHUNK, n - a)]
            rng.standard_normal(out=part)
            pieces.append(part.copy())
        assert same_bits(np.concatenate(pieces), whole)

    def test_row_blocks_equal_one_draw(self):
        whole = block_rng(4, 0).standard_normal((10, 7))
        rng = block_rng(4, 0)
        buf = np.empty((3, 7))
        for a in range(0, 10, 3):
            block = buf[: min(3, 10 - a)]
            rng.standard_normal(out=block)
            assert same_bits(block, whole[a : a + 3])


class _RecordingPool(concurrent.futures.ThreadPoolExecutor):
    created = []

    def __init__(self, max_workers=None, **kwargs):
        type(self).created.append(max_workers)
        super().__init__(max_workers=max_workers, **kwargs)


@pytest.fixture
def recording_pool(monkeypatch):
    _RecordingPool.created = []
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _RecordingPool)
    return _RecordingPool.created


# n_steps for simulate_paths with two paths to a block.
TWO_ROW_STEPS = _CHUNK // 2


class TestThreadCountInvariance:
    THREADS = [2, 3, 4, 5, 9]

    @pytest.mark.parametrize("n_draws", [_CHUNK - 1, _CHUNK + 1, 3 * _CHUNK + 7])
    @pytest.mark.parametrize("antithetic", [True, False])
    def test_mc_price(self, antithetic, n_draws):
        opt = OptionSpec("put", 1.2, 0.8)
        n_paths = 2 * n_draws if antithetic else n_draws

        def run(n_partitions):
            res = mc_price(MARKET, opt, n_paths, 61, antithetic=antithetic,
                           n_partitions=n_partitions)
            return res.premium, res.std_error

        serial = run(1)
        for n_partitions in self.THREADS:
            assert same_bits(run(n_partitions), serial), n_partitions

    @pytest.mark.parametrize(
        "n_steps, n_paths",
        [(1, _CHUNK - 1), (1, _CHUNK + 1), (1, 3 * _CHUNK + 7), (TWO_ROW_STEPS, 7)],
    )
    def test_simulate_paths(self, n_steps, n_paths):
        serial = simulate_paths(PHYSICAL, 1.0, n_steps, n_paths, 63).log_paths
        for n_partitions in self.THREADS:
            got = simulate_paths(PHYSICAL, 1.0, n_steps, n_paths, 63, n_partitions)
            assert same_bits(got.log_paths, serial), n_partitions


class TestSingleStepMemory:
    def test_keeps_no_samples(self):
        # 10^6 antithetic pairs are 8 MB of samples, and np.std made a second
        # copy; blocks of moments keep one 512 KiB block and its mirror per thread.
        opt = OptionSpec("call", 1.1, 1.0)
        tracemalloc.start()
        try:
            mc_price(MARKET, opt, 2_000_000, 5, antithetic=True, n_partitions=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestMergedMoments:
    @pytest.mark.parametrize("n_paths", [2, 3, 7, 101, 10_001, _CHUNK - 1])
    @pytest.mark.parametrize("antithetic", [True, False])
    def test_one_block_equals_whole_array_moments(self, antithetic, n_paths):
        # One block's premium and standard error are np.mean's and np.std's
        # on its samples, bit for bit.
        if antithetic:
            n_paths = 2 * n_paths + 2
        opt = OptionSpec("call", 1.05, 0.7)
        discount = math.exp(-MARKET.drift_d * opt.expiry)
        for seed in range(10):
            got = mc_price(MARKET, opt, n_paths, seed, antithetic=antithetic)
            samples = reference_samples(MARKET, opt, n_paths, seed, antithetic)
            std = float(np.std(samples, ddof=1))
            assert same_bits(got.premium, discount * float(np.mean(samples)))
            assert same_bits(got.std_error, discount * std / math.sqrt(samples.size))

    # Merged block moments round differently from one whole-array pass, but
    # by no more than a few units in the last place.
    @pytest.mark.parametrize("n_paths, antithetic, n_partitions", [
        (2 * (3 * _CHUNK + 7), True, 1),
        (3 * _CHUNK + 7, False, 1),
        (1_000_000, True, 1),
        (1_000_000, True, 2),
    ])
    @pytest.mark.parametrize("opt", OPTIONS)
    def test_close_to_whole_array_moments(self, opt, n_paths, antithetic, n_partitions):
        got = mc_price(
            MARKET, opt, n_paths, 41, antithetic=antithetic, n_partitions=n_partitions
        )
        samples = reference_samples(MARKET, opt, n_paths, 41, antithetic)
        discount = math.exp(-MARKET.drift_d * opt.expiry)
        premium = discount * float(np.mean(samples))
        std_error = discount * float(np.std(samples, ddof=1)) / math.sqrt(samples.size)
        assert got.premium == pytest.approx(premium, rel=1e-14, abs=0.0)
        assert got.std_error == pytest.approx(std_error, rel=1e-14, abs=0.0)


class TestHits:
    def test_deep_out_of_the_money_put_has_none(self):
        # True premium 1.8e-8: no pair of 10,000 reaches the strike, and the
        # zero standard error is read with n_hits == 0, not raised.
        res = mc_price(MARKET, OptionSpec("put", 0.4, 0.5), 20_000, 3)
        assert res.diagnostics["n_hits"] == 0
        assert res.premium == 0.0 and res.std_error == 0.0

    @pytest.mark.parametrize("antithetic", [True, False])
    def test_at_the_money_call_has_some(self, antithetic):
        res = mc_price(MARKET, OptionSpec("call", 1.1, 1.0), 20_000, 3, antithetic=antithetic)
        assert 0 < res.diagnostics["n_hits"] < res.diagnostics["n_samples"]

    @pytest.mark.parametrize("antithetic", [True, False])
    def test_counts_nonzero_samples_at_any_thread_count(self, antithetic):
        # A pair is a hit when either leg pays, which makes its mean nonzero.
        opt = OptionSpec("put", 1.0, 0.8)
        n_paths = 2 * (3 * _CHUNK + 7)
        want = np.count_nonzero(reference_samples(MARKET, opt, n_paths, 8, antithetic))
        for n_partitions in (1, 2, 5):
            res = mc_price(MARKET, opt, n_paths, 8, antithetic=antithetic,
                           n_partitions=n_partitions)
            assert res.diagnostics["n_hits"] == want, n_partitions


class TestPartitionRunner:
    # Blocks run inline when min(n_partitions, blocks, cores) is 1, and on a
    # pool of that many workers otherwise.
    def test_mc_price_runs_partitions_on_the_pool(self, recording_pool):
        opt = OptionSpec("call", 1.0, 1.0)
        mc_price(MARKET, opt, n_paths=2 * _CHUNK + 2, seed=3, n_partitions=2)
        assert recording_pool == [2]

    def test_one_partition_runs_inline(self, recording_pool):
        opt = OptionSpec("call", 1.0, 1.0)
        mc_price(MARKET, opt, n_paths=4 * _CHUNK, seed=3)
        simulate_paths(PHYSICAL, 1.0, TWO_ROW_STEPS, 5, seed=3)
        assert recording_pool == []

    @pytest.mark.parametrize("cores, expected", [(2, 2), (3, 3), (None, 1)])
    def test_workers_capped_at_core_count(self, monkeypatch, recording_pool, cores, expected):
        # Five blocks each: 4 * _CHUNK + 1 draws, and 9 paths of two rows.
        def run(cpu_count):
            monkeypatch.setattr(dynamics.os, "cpu_count", lambda: cpu_count)
            mc = mc_price(MARKET, OptionSpec("put", 1.1, 0.5), 4 * _CHUNK + 1, 9,
                          antithetic=False, n_partitions=5)
            paths = simulate_paths(PHYSICAL, 1.0, TWO_ROW_STEPS, 9, seed=9, n_partitions=5)
            return mc, paths

        uncapped_mc, uncapped_paths = run(64)
        capped_mc, capped_paths = run(cores)
        assert recording_pool == [5, 5] + ([expected] * 2 if expected > 1 else [])
        assert same_bits(capped_mc.premium, uncapped_mc.premium)
        assert same_bits(capped_mc.std_error, uncapped_mc.std_error)
        assert same_bits(capped_paths.log_paths, uncapped_paths.log_paths)

    def test_many_partitions_start_few_workers(self, monkeypatch, recording_pool):
        # Ten thousand threads asked for, three blocks, two cores: two workers.
        monkeypatch.setattr(dynamics.os, "cpu_count", lambda: 2)
        paths = simulate_paths(PHYSICAL, 1.0, TWO_ROW_STEPS, 5, seed=1, n_partitions=10_000)
        assert recording_pool == [2]
        want = reference_log_paths(PHYSICAL, 1.0, TWO_ROW_STEPS, 5, 1)
        assert same_bits(paths.log_paths, want)

    def test_one_item_on_three_partitions_starts_no_pool(self, recording_pool):
        # One item is one block, so it runs inline.
        paths = simulate_paths(PHYSICAL, 1.0, 2, 1, seed=4, n_partitions=3)
        assert recording_pool == []
        want = reference_log_paths(PHYSICAL, 1.0, 2, 1, 4)
        assert same_bits(paths.log_paths, want)

    def test_workers_never_share_a_buffer(self, monkeypatch):
        # Eight workers on any core count, switching threads every
        # microsecond: two workers drawing into one buffer would mix their
        # blocks' draws.
        monkeypatch.setattr(dynamics.os, "cpu_count", lambda: 8)
        opt = OptionSpec("call", 1.05, 0.7)
        n_paths = 20 * (_CHUNK // 52) + 3
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            paths = simulate_paths(PHYSICAL, 1.0, 52, n_paths, seed=12, n_partitions=8)
            for antithetic in (True, False):
                assert_mc_matches_reference(opt, 2 * (20 * _CHUNK + 3), 12, antithetic, 8)
        finally:
            sys.setswitchinterval(interval)
        assert same_bits(paths.log_paths, reference_log_paths(PHYSICAL, 1.0, 52, n_paths, 12))

    def test_worker_error_propagates(self, monkeypatch):
        def failing_rng(seed, b):
            if b == 1:
                raise RuntimeError("stream 1 failed")
            return block_rng(seed, b)

        monkeypatch.setattr(dynamics, "block_rng", failing_rng)
        with pytest.raises(RuntimeError, match="stream 1 failed"):
            simulate_paths(PHYSICAL, 1.0, TWO_ROW_STEPS, 10, seed=1, n_partitions=3)
