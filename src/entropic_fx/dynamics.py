"""Log exchange-rate dynamics: transition law and GBM path simulation.

The log rate moves by independent Gaussian increments, so the exchange rate
itself follows a geometric Brownian motion.  Everything here depends on the
rate only through ratios u'/u; working in ``ln u`` makes that scale
invariance automatic.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, require_at_least, require_positive
from .grids import _csv_chunks
from .market import PHYSICAL, RISK_NEUTRAL, MarketParams, log_coordinate  # re-exported

# The Monte Carlo kernels draw and transform this many float64 values
# (512 KiB) per block, in place, so a block's temporaries take one
# block-sized buffer rather than one full-size array per operation.  It also
# fixes the stream layout: block b is drawn from block_rng(seed, b), so
# changing it changes every seeded output.
_CHUNK = 65_536
# simulate_paths holds n_paths * (n_steps + 1) float64 values at once; it
# refuses more than this (0.8 GB) before allocating them.
MAX_PATH_VALUES = 10**8


@dataclass(frozen=True)
class TransitionDensity:
    """Gaussian law of ln(u'/u) over an interval dt."""

    log_mean: float
    log_var: float
    dt: float

    def __post_init__(self):
        require_positive("log_var", self.log_var)
        require_positive("dt", self.dt)
        if not math.isfinite(self.log_mean):
            raise DomainError("log_mean must be finite")


def transition_density(params: MarketParams, dt: float) -> TransitionDensity:
    """One-step law of ln(u'/u): mean log_drift*dt, variance sigma**2*dt.

    Depends only on the ratio u'/u, never on the level u0, so it is
    identical for any rescaling of the spot.
    """
    require_positive("dt", dt)
    return TransitionDensity(
        log_mean=params.log_drift * dt,
        log_var=params.sigma * params.sigma * dt,
        dt=dt,
    )


def transition_pdf(td: TransitionDensity, ln_ratio):
    """Gaussian density of the log ratio; accepts scalars or arrays."""
    ln_ratio = np.asarray(ln_ratio, dtype=float)
    z = (ln_ratio - td.log_mean) ** 2 / (2.0 * td.log_var)
    out = np.exp(-z) / math.sqrt(2.0 * math.pi * td.log_var)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class PathSet:
    """Simulated log-rate trajectories on a uniform time grid."""

    times: np.ndarray
    log_paths: np.ndarray  # one row per path, one column per time

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        log_paths = np.asarray(self.log_paths, dtype=float)
        if times.ndim != 1 or times.size == 0 or times[0] != 0.0 or np.any(np.diff(times) <= 0.0):
            raise DomainError("times must start at 0 and increase strictly")
        if log_paths.ndim != 2 or log_paths.shape[1] != times.size:
            raise DomainError("log_paths must be 2-D with one column per time")
        if len(log_paths) == 0:
            raise DomainError("log_paths must hold at least one path")
        first = log_paths[:, 0]
        if np.any(first != first[0]):
            raise DomainError("all paths must share the same starting point")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "log_paths", log_paths)

    @property
    def terminal_log(self) -> np.ndarray:
        return self.log_paths[:, -1]


def block_rng(seed: int, block: int) -> np.random.Generator:
    """Independent stream for one block, derived from (seed, block)."""
    return np.random.default_rng(np.random.SeedSequence((seed, block)))


def _require_streams(seed: int, n_partitions: int) -> None:
    """Check the arguments that pick the block streams and their threads."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DomainError("seed must be a non-negative integer")
    require_at_least("n_partitions", n_partitions, 1)


def _run_blocks(
    n_items: int, n_draws: int, seed: int, n_threads: int, fill, buffers: int = 1
) -> list:
    """``[fill(rng, lo, hi, work) for each block [lo, hi) of n_items]``, in block order.

    Each item takes n_draws draws, and a block holds ``max(1, _CHUNK //
    n_draws)`` items, the last one fewer.  Block b draws from
    block_rng(seed, b), so the results depend on the seed, n_items and
    n_draws, never on the thread count or the schedule.  The blocks run
    inline when min(n_threads, blocks, cores) is 1, else on that many
    workers, worker w taking blocks w, w + workers, ...  The calling
    thread allocates workers x buffers x one block of float64 values, once
    per call, and ``work`` is the worker's own (buffers, block) slice of
    it; a fill keeps its temporaries there and allocates no array per block.
    """
    size = max(1, _CHUNK // n_draws)
    n_blocks = -(-n_items // size)
    workers = min(n_threads, n_blocks, os.cpu_count() or 1)
    workspace = np.empty((workers, buffers, min(size, n_items) * n_draws))

    def run(w: int) -> list:
        return [
            fill(block_rng(seed, b), b * size, min((b + 1) * size, n_items), workspace[w])
            for b in range(w, n_blocks, workers)
        ]

    if workers == 1:
        return run(0)
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(run, range(workers)))
    return [parts[b % workers][b // workers] for b in range(n_blocks)]


def simulate_paths(
    params: MarketParams,
    horizon: float,
    n_steps: int,
    n_paths: int,
    seed: int,
    n_partitions: int = 1,
) -> PathSet:
    """Simulate GBM log paths with exact Gaussian increments.

    Each step adds ``log_drift*dt + sigma*sqrt(dt)*Z`` to ln u, which is the
    increment law itself, so the discretization introduces no time-step
    bias.  Paths are drawn in blocks of ``max(1, 65536 // n_steps)`` rows,
    block b from its own stream derived from ``(seed, b)``, so the output is
    a function of the seed, ``n_paths`` and ``n_steps`` alone; the blocks
    run on up to ``n_partitions`` threads.  Besides the result, the call
    allocates one block of draws per thread, once.
    """
    require_positive("horizon", horizon)
    require_at_least("n_steps", n_steps, 1)
    require_at_least("n_paths", n_paths, 1)
    _require_streams(seed, n_partitions)
    if n_paths * (n_steps + 1) > MAX_PATH_VALUES:
        raise DomainError(
            f"{n_paths} paths of {n_steps + 1} values exceed {MAX_PATH_VALUES}: "
            "lower n_paths or n_steps"
        )

    x0 = log_coordinate(params.u0)
    dt = horizon / n_steps
    log_paths = np.empty((n_paths, n_steps + 1))
    log_paths[:, 0] = x0

    def fill(rng: np.random.Generator, lo: int, hi: int, work: np.ndarray) -> None:
        # x0 + cumsum(step_mean + step_sd * Z) along rows, each operation the
        # one-shot formula's, commuted at most; Z is drawn into the worker's
        # buffer, viewed as the block's rows.
        z = work[0, : (hi - lo) * n_steps].reshape(hi - lo, n_steps)
        rng.standard_normal(out=z)
        z *= params.sigma * math.sqrt(dt)
        z += params.log_drift * dt
        out = log_paths[lo:hi, 1:]
        np.cumsum(z, axis=1, out=out)
        out += x0

    _run_blocks(n_paths, n_steps, seed, n_partitions, fill)

    return PathSet(np.linspace(0.0, horizon, n_steps + 1), log_paths)


def paths_csv_chunks(paths: PathSet) -> Iterator[str]:
    """The text of paths_to_csv, in chunks of a few thousand values."""
    header = "time," + ",".join(f"path_{j}" for j in range(len(paths.log_paths))) + "\n"
    return _csv_chunks(header, paths.times, paths.log_paths.T)


def paths_to_csv(paths: PathSet) -> str:
    """Serialize as ``time,path_0,...`` rows with 17 significant digits."""
    return "".join(paths_csv_chunks(paths))
