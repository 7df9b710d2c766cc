"""Densities on uniform 1-D log-rate grids, and their 17-digit CSV text.

A grid is three numbers (``UniformGrid``); a points array from outside is
checked once, by ``UniformGrid.of``, where a public constructor takes one.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridMismatch, require_at_least, require_positive

# Relative deviation allowed between grid spacings before the grid is
# rejected as non-uniform, and between the ends of two grids taken as one.
SPACING_RTOL = 1e-12
# The most points a grid command allocates, checked before allocating.
MAX_GRID_POINTS = 1_000_000


@dataclass(frozen=True)
class UniformGrid:
    """The n_points log rates np.linspace(x_min, x_max, n_points)."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not -math.inf < self.x_min < self.x_max < math.inf:
            raise DomainError("grid bounds must be finite, with x_min < x_max")
        require_at_least("n_points", self.n_points, 2)

    @classmethod
    def of(cls, points) -> UniformGrid:
        """The grid of finite increasing points, each step within SPACING_RTOL
        of the mean; np.linspace's arrays read back bit for bit."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 1 or points.size < 2 or not np.all(np.isfinite(points)):
            raise DomainError("points must be a finite 1-D array of two or more")
        steps = np.diff(points)
        if np.any(steps <= 0.0):
            raise DomainError("points must be strictly increasing")
        h = (points[-1] - points[0]) / (points.size - 1)
        deviation = np.abs(np.subtract(steps, h, out=steps), out=steps)
        if np.max(deviation) > SPACING_RTOL * max(abs(h), 1.0):
            raise DomainError("points must be uniformly spaced")
        return cls(float(points[0]), float(points[-1]), points.size)

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)

    def matches(self, other: UniformGrid) -> bool:
        """Equal n_points, and ends within SPACING_RTOL of the largest |end|, or 1."""
        a, b = (self.x_min, self.x_max), (other.x_min, other.x_max)
        tol = SPACING_RTOL * max(1.0, *map(abs, a + b))
        return self.n_points == other.n_points and all(abs(x - y) <= tol for x, y in zip(a, b))


@dataclass(frozen=True, init=False)
class DensityGrid:
    """Nonnegative density values per unit log rate, one per grid point;
    trapezoidal moments.  DensityGrid(points, weights) checks both arrays;
    given another density's or spec's UniformGrid, it takes the weights as
    their maker checked them."""

    grid: UniformGrid
    weights: np.ndarray

    def __init__(self, points, weights):
        if not isinstance(points, UniformGrid):
            points = UniformGrid.of(points)
            weights = np.asarray(weights, dtype=float)
            if weights.shape != (points.n_points,):
                raise DomainError("weights must be one per point")
            if not np.all(np.isfinite(weights)) or np.any(weights < 0.0):
                raise DomainError("weights must be finite and nonnegative")
        object.__setattr__(self, "grid", points)
        object.__setattr__(self, "weights", weights)

    points = property(lambda self: self.grid.points(), doc="Built on each read.")
    h = property(lambda self: self.grid.h)
    n = property(lambda self: self.grid.n_points)

    def mass(self) -> float:
        """Total probability under the trapezoidal rule."""
        return float(np.trapezoid(self.weights, dx=self.h))

    def normalize(self) -> "DensityGrid":
        """Rescale weights so the trapezoidal mass is exactly one."""
        m = self.mass()
        if m <= 0.0:
            raise DomainError("cannot normalize a density with zero mass")
        return DensityGrid(self.grid, self.weights / m)

    def expectation(self, values: np.ndarray) -> float:
        """Trapezoidal expectation of a function sampled on the grid."""
        values = np.asarray(values, dtype=float)
        if values.shape != self.weights.shape:
            raise GridMismatch("sampled function does not match the grid")
        return float(np.trapezoid(self.weights * values, dx=self.h))

    def mean(self) -> float:
        return self.expectation(self.points)

    def variance(self) -> float:
        m = self.mean()
        return self.expectation((self.points - m) ** 2)


def same_grid(a: DensityGrid, b: DensityGrid) -> bool:
    return a.grid.matches(b.grid)


def require_same_grid(a: DensityGrid, b: DensityGrid) -> None:
    if not same_grid(a, b):
        raise GridMismatch("density grids differ")


def gaussian_density(points: np.ndarray, mean: float, variance: float) -> DensityGrid:
    """Normal density sampled on ``points`` and trapezoid-normalized."""
    require_positive("variance", variance)
    points = np.asarray(points, dtype=float)
    grid = UniformGrid.of(points)
    z = (points - mean) ** 2 / (2.0 * variance)
    w = np.exp(-(z - z.min()))  # shift before exponentiating; rescaled below
    return DensityGrid(grid, w).normalize()


def uniform_density(points: np.ndarray) -> DensityGrid:
    grid = UniformGrid.of(points)
    return DensityGrid(grid, np.ones(grid.n_points)).normalize()


def l1_distance(a: DensityGrid, b: DensityGrid) -> float:
    """Trapezoidal integral of |a - b|."""
    require_same_grid(a, b)
    return float(np.trapezoid(np.abs(a.weights - b.weights), dx=a.h))


# Values per chunk of _csv_chunks.  A chunk's temporaries (~0.3 MB) sit on
# top of the paths in `simulate`, the CLI command with the highest peak
# RSS, and stay below the simulation's own.  4096 write a CSV ~10% faster
# at the same peak; 8192 lift it by 0.8 MB.
_CSV_CHUNK = 2048


@functools.cache
def _csv_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lookup tables of _csv_chunk, built on first use, not at import: each
    group 0000..9999 as four little-endian uint16, ASCII digit low and NUL
    point slot high; at 5 * (x < 0) + z, the sign, then "0." and z - 1
    zeros for z > 0, NUL-padded to 8 bytes; the exact doubles 10**0..22."""
    place_values = np.array([1000, 100, 10, 1], "<u2")
    digits = np.arange(10_000, dtype="<u2")[:, None] // place_values % 10 + 48
    heads = [s + "0.000"[: z + 1] * (z > 0) for s in ("", "-") for z in range(5)]
    return (  # read-only, as np.frombuffer of bytes is
        np.frombuffer(digits.tobytes(), "<u8"),
        np.frombuffer("".join(h.ljust(8, "\0") for h in heads).encode(), "<u8"),
        np.frombuffer(np.array([float(10**k) for k in range(23)]).tobytes()),
    )


def _round_17(a: np.ndarray, e: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """round-half-even(a * 10**(16 - e)) as int64, from Dekker's exact product."""
    b = powers[np.clip(16 - e, 0, 22)]
    hi = a * b
    ca, cb = a * 134217729.0, b * 134217729.0
    a1, b1 = ca - (ca - a), cb - (cb - b)
    a2, b2 = a - a1, b - b1
    lo = ((a1 * b1 - hi) + a1 * b2 + a2 * b1) + a2 * b2
    # hi is an even integer wherever the result has 17 digits, so rounding
    # lo half-even rounds hi + lo half-even.
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _csv_chunks(header: str, *columns: np.ndarray) -> Iterator[str]:
    """header, then the text of one CSV line per row of the columns, 1-D
    arrays or 2-D blocks joined as np.column_stack joins them, every value
    as "%.17g" prints it, yielded _CSV_CHUNK values at a time."""
    n_rows = len(columns[0])
    n_cols = sum(1 if np.ndim(c) == 1 else np.shape(c)[1] for c in columns)
    step = max(1, _CSV_CHUNK // n_cols)
    yield header
    # Whole rows, then _CSV_CHUNK values, at a time keep the temporaries
    # near 0.3 MB without a copy of the table or of its text.
    for row in range(0, n_rows, step):
        block = np.column_stack([c[row : row + step] for c in columns])
        values = block.astype(float, copy=False).ravel()
        for start in range(0, values.size, _CSV_CHUNK):
            yield _csv_chunk(values[start : start + _CSV_CHUNK], start, n_cols)


def _csv_chunk(x: np.ndarray, start: int, n_cols: int) -> str:
    """The CSV text of values start, start + 1, ... of a block of whole rows.

    1e-4 <= |x| < 1e16, which "%.17g" prints in fixed notation, is laid out
    in 41 bytes: sign, "0.000", 17 digits each followed by a point slot, and
    the separator, with every byte "%.17g" would not print NUL and dropped.
    Other values go to "%.17g" itself.  Temporaries are freed once used."""
    groups, heads, powers = _csv_tables()
    place = np.arange(17, dtype=np.int8)
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    n = _round_17(a, e, powers)
    # log10 may be one off near a power of ten, and rounding may carry
    # into an 18th digit: move the exponent and round again.
    e += (n >= 10**17).astype(np.int64) - (n < 10**16)
    redo = np.flatnonzero((n < 10**16) | (n >= 10**17))
    n[redo] = _round_17(a[redo], e[redo], powers)
    del a
    fast &= (e >= -4) & (e <= 15) & (n >= 10**16) & (n < 10**17)
    quads = np.empty((x.size, 4), np.int64)
    for j in (3, 2, 1, 0):  # floor_divide by a constant is faster than divmod
        rest = n // 10_000
        quads[:, j], n = n - rest * 10_000, rest
    d = np.empty((x.size, 17), "<u2")  # digit, then point slot
    d[:, 0] = n + 48
    d[:, 1:] = np.take(groups, quads).view("<u2")
    del quads, n, rest
    e = e.astype(np.int8)  # -4..15 in the fast slots; small types are faster
    # Only digits that end in 0 have trailing zeros to drop.
    last = np.full(x.size, 16, np.int8)  # last nonzero digit
    ends_in_0 = np.flatnonzero(d[:, 16] == 48)
    last[ends_in_0] = 16 - np.argmax(d[ends_in_0, ::-1] != 48, axis=1)
    d[ends_in_0] *= place <= np.maximum(last, e)[ends_in_0, None]
    point = np.flatnonzero((e >= 0) & (last > e))
    d[point, e[point]] |= 0x2E00
    buf = np.empty((x.size, 41), np.uint8)
    head = np.take(heads, 5 * (x < 0) + np.clip(-e, 0, 4))
    buf[:, :6] = head.view(np.uint8).reshape(x.size, 8)[:, :6]
    buf[:, 6:40] = d.view(np.uint8)
    del d, head
    row_end = np.arange(start, start + x.size) % n_cols == n_cols - 1
    buf[:, 40] = np.where(row_end, 10, 44)
    slow = np.flatnonzero(~fast)
    buf[slow, :40] = np.frombuffer(b"%.17g".ljust(40, b"\0"), np.uint8)
    text = buf.tobytes().translate(None, b"\0")
    return (text % tuple(x[slow].tolist()) if slow.size else text).decode("ascii")


def density_csv_chunks(grid: DensityGrid) -> Iterator[str]:
    """The text of density_to_csv, in chunks of a few thousand values."""
    return _csv_chunks("x,p\n", grid.points, grid.weights)


def density_to_csv(grid: DensityGrid) -> str:
    """Serialize as ``x,p`` rows with 17 significant digits."""
    return "".join(density_csv_chunks(grid))
