"""Discretized probability densities on uniform 1-D log-rate grids."""

from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridMismatch, require_positive

# Relative deviation allowed between grid spacings before the grid is
# rejected as non-uniform.
SPACING_RTOL = 1e-12
# The most points a grid command allocates, checked before allocating.
# tracemalloc peaks per point: solve_maxent 73 bytes, evolve_density 65 and
# pde_price 66.  At 10**6 points each grid command's peak RSS is 77-110 MB
# above that of importing numpy (the CLI's own arrays and FFT scratch).
MAX_GRID_POINTS = 1_000_000


def _as_1d_float(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise DomainError(f"{name} must be one-dimensional")
    if arr.size < 2:
        raise DomainError(f"{name} needs at least two entries")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class DensityGrid:
    """Density values sampled on a uniform, strictly increasing grid.

    ``points`` are log-rate coordinates, ``weights`` are nonnegative density
    values per unit log-rate.  Normalization uses the trapezoidal rule; a
    freshly constructed grid need not be normalized until ``normalize`` is
    called.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        points = _as_1d_float(self.points, "points")
        weights = _as_1d_float(self.weights, "weights")
        if points.size != weights.size:
            raise DomainError("points and weights must have equal length")
        steps = np.diff(points)
        if np.any(steps <= 0.0):
            raise DomainError("points must be strictly increasing")
        h = (points[-1] - points[0]) / (points.size - 1)
        if np.max(np.abs(steps - h)) > SPACING_RTOL * max(abs(h), 1.0):
            raise DomainError("points must be uniformly spaced")
        if np.any(weights < 0.0):
            raise DomainError("weights must be nonnegative")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)

    @property
    def h(self) -> float:
        """Grid spacing."""
        return (self.points[-1] - self.points[0]) / (self.points.size - 1)

    @property
    def n(self) -> int:
        return self.points.size

    def mass(self) -> float:
        """Total probability under the trapezoidal rule."""
        return float(np.trapezoid(self.weights, dx=self.h))

    def normalize(self) -> "DensityGrid":
        """Rescale weights so the trapezoidal mass is exactly one."""
        m = self.mass()
        if m <= 0.0:
            raise DomainError("cannot normalize a density with zero mass")
        return DensityGrid(self.points, self.weights / m)

    def expectation(self, values: np.ndarray) -> float:
        """Trapezoidal expectation of a function sampled on the grid."""
        values = np.asarray(values, dtype=float)
        if values.shape != self.points.shape:
            raise GridMismatch("sampled function does not match the grid")
        return float(np.trapezoid(self.weights * values, dx=self.h))

    def mean(self) -> float:
        return self.expectation(self.points)

    def variance(self) -> float:
        m = self.mean()
        return self.expectation((self.points - m) ** 2)


def same_grid(a: DensityGrid, b: DensityGrid) -> bool:
    if a.n != b.n:
        return False
    scale = max(1.0, float(np.max(np.abs(a.points))))
    return bool(np.max(np.abs(a.points - b.points)) <= SPACING_RTOL * scale)


def require_same_grid(a: DensityGrid, b: DensityGrid) -> None:
    if not same_grid(a, b):
        raise GridMismatch("density grids differ")


def gaussian_density(points: np.ndarray, mean: float, variance: float) -> DensityGrid:
    """Normal density sampled on ``points`` and trapezoid-normalized."""
    require_positive("variance", variance)
    points = np.asarray(points, dtype=float)
    z = (points - mean) ** 2 / (2.0 * variance)
    w = np.exp(-(z - z.min()))  # shift before exponentiating; rescaled below
    return DensityGrid(points, w).normalize()


def uniform_density(points: np.ndarray) -> DensityGrid:
    points = np.asarray(points, dtype=float)
    return DensityGrid(points, np.ones_like(points)).normalize()


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
