"""Forward density evolution for the log exchange rate.

Solves dp/dt = -d/dx[nu p] + (sigma^2/2) d^2p/dx^2 on a uniform grid with
a conservative flux-form discretization: the change in each cell is the
difference of fluxes through its faces, and the boundary faces carry zero
flux, so the discrete mass sum is conserved exactly (up to rounding).
Time stepping is Crank-Nicolson.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import MarketParams, log_coordinate
from .errors import DomainError, MassLeak, NumericalError
from .grids import MAX_GRID_POINTS, DensityGrid, gaussian_density

# Negative output values in [-_CLIP_FLOOR, 0) are clipped to zero; anything
# more negative means the scheme has genuinely failed.
_CLIP_FLOOR = 1e-12
# Accumulated boundary-face |flux|*dt beyond this fraction of the mass
# means the density reached the edge of the grid.
_LEAK_TOL = 1e-8
# The initial condition must hold all but this much of its mass inside the
# central 80% of the grid.
_SUPPORT_TOL = 1e-12
# Longest block of the recurrence solves (_RecurrencePair).
_BLOCK = 64
# Each matrix product of a solve has at most this many multiply-adds
# (_product).  OpenBLAS runs such products on one thread; threading one of
# this size costs more than it saves, and on a busy machine it sometimes stalls.
_SERIAL_PRODUCT = 1 << 18
# Smallest normal float; smaller table entries are flushed to zero, since
# subnormal operands make matrix products many times slower.
_TINY = np.finfo(float).tiny
# Largest condition number (1-norm) accepted for the 2x2 capacitance matrix
# of _TridiagonalLU's Woodbury step.
_CAPACITANCE_COND = 1e12


@dataclass(frozen=True)
class FPGridSpec:
    """Spatial extent, resolution, and time-step cap for the evolution."""

    x_min: float
    x_max: float
    n_points: int = 2001
    dt_step: float = 1e-3

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise DomainError("grid bounds must be finite")
        if not self.x_min < self.x_max:
            raise DomainError("x_min must be less than x_max")
        if not 3 <= self.n_points <= MAX_GRID_POINTS:
            raise DomainError(f"n_points must be between 3 and {MAX_GRID_POINTS}")
        if not (self.dt_step > 0.0 and math.isfinite(self.dt_step)):
            raise DomainError("dt_step must be positive and finite")

    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)

    def n_steps(self, t: float) -> int:
        """The fewest equal steps of at most dt_step that span t.

        The relative slack forgives the rounding of dt_step = t / N, so that
        t / dt_step, a few ulps above N, still gives N steps at any N.
        """
        return max(1, math.ceil(t / self.dt_step * (1.0 - 1e-12)))


def default_grid(
    params: MarketParams,
    t: float,
    n_points: int = 2001,
    n_time_steps: int = 1000,
) -> FPGridSpec:
    """Grid centered on the log-rate mean at time t, ten sigmas wide."""
    if not (t > 0.0 and math.isfinite(t)):
        raise DomainError("t must be positive and finite")
    if n_time_steps < 1:
        raise DomainError("n_time_steps must be at least 1")
    center = log_coordinate(params.u0) + params.log_drift * t
    half = 10.0 * params.sigma * math.sqrt(t)
    return FPGridSpec(
        x_min=center - half,
        x_max=center + half,
        n_points=n_points,
        dt_step=t / n_time_steps,
    )


def point_mass_density(points: np.ndarray, center: float) -> DensityGrid:
    """Narrow Gaussian standing in for a delta at ``center``.

    The width is three grid spacings: wide enough to be resolved, narrow
    enough that its variance is negligible next to the diffusion scale.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 1 or points.size < 2:
        raise DomainError("points must be a 1-D array with at least 2 entries")
    h = float(points[1] - points[0])
    if not (points[0] < center < points[-1]):
        raise DomainError("center must lie inside the grid")
    return gaussian_density(points, center, (3.0 * h) ** 2)


def analytic_density(params: MarketParams, t: float, points: np.ndarray) -> DensityGrid:
    """Exact log-rate density at time t: Gaussian with drift*t and var sigma^2 t."""
    if not (t > 0.0 and math.isfinite(t)):
        raise DomainError("t must be positive and finite")
    mean = log_coordinate(params.u0) + params.log_drift * t
    var = params.sigma * params.sigma * t
    return gaussian_density(np.asarray(points, dtype=float), mean, var)


def _check_initial_support(initial: DensityGrid) -> None:
    points = initial.points
    span = points[-1] - points[0]
    lo = points[0] + 0.1 * span
    hi = points[-1] - 0.1 * span
    inner = (points >= lo) & (points <= hi)
    outer_mass = initial.mass() - float(
        np.trapezoid(np.where(inner, initial.weights, 0.0), points)
    )
    if outer_mass > _SUPPORT_TOL:
        raise MassLeak(
            "initial density carries mass outside the central 80% of the grid; "
            "widen the grid before evolving"
        )


def _operator_diagonals(nu: float, diffusion: float, h: float, n: int):
    """Tridiagonal generator L with zero-flux boundary faces.

    Face flux between cells i and i+1 is the centered average advective
    part plus a two-point diffusive part; dividing flux differences by h
    gives rates of change.  Column sums of L vanish, which is exactly
    discrete mass conservation.
    """
    adv = 0.5 * nu / h
    dif = diffusion / (h * h)

    lower = np.full(n, adv + dif)
    upper = np.full(n, -adv + dif)
    diag = np.full(n, -2.0 * dif)
    diag[0] = -adv - dif
    diag[-1] = adv - dif
    lower[0] = 0.0
    upper[-1] = 0.0
    return lower, diag, upper


def _apply_tridiag(lower, diag, upper, p):
    out = diag * p
    out[1:] += lower[1:] * p[:-1]
    out[:-1] += upper[:-1] * p[1:]
    return out


def _power_table(r: float, m: int, reverse: bool, stride: int, scale: float = 1.0):
    """(m, m) table T such that x @ T solves y[i] = scale * x[i] + r**stride *
    y[i -/+ 1] from zero across one block x of m entries."""
    k = np.arange(m)
    powers = scale * np.power(r, stride * k)
    powers[np.abs(powers) < _TINY] = 0.0
    gap = k[:, None] - k[None, :] if reverse else k[None, :] - k[:, None]
    return np.where(gap >= 0, powers[np.abs(gap)], 0.0)


def _product(blocks, table):
    """blocks @ table, at most _SERIAL_PRODUCT multiply-adds per product."""
    rows = max(1, _SERIAL_PRODUCT // table.size)
    if len(blocks) <= rows:
        return np.matmul(blocks, table)
    out = np.empty((len(blocks), table.shape[1]))
    for i in range(0, len(blocks), rows):
        np.matmul(blocks[i : i + rows], table, out=out[i : i + rows])
    return out


class _RecurrencePair:
    """x -> z through y[i] = sf * x[i] + f * y[i-1], then z[i] = sb * y[i] +
    b * z[i+1], for |f|, |b| < 1, on m entries, by block matrix products.

    ``input`` is the x to solve for (solve() overwrites it), padded by
    leading zeros to nb blocks of bl entries; the table F B runs both
    recurrences across a block from zero.  Carries enter a block as x does:
    y's end Y in the block before as f / sf * Y added to its first x, z's
    start Z in the block after as b / (sb sf) * Z added to its last x.  A
    thin product gives each block's y end and z start from zero carries.
    Y carries with ratio f**bl, and Z, with Y's share through F B[0, 0],
    with ratio b**bl: by one (2nb, 2nb) table when the blocks are few, by a
    nested pair (the other ratio 0) each otherwise.  One product with F B
    then solves x with the carries folded in.  The zero padding stays zero
    forward and takes values only backward.  Every x entry meets the thin
    product (0 * inf is nan), so a non-finite one raises there.  ``stride``
    makes the ratios f**stride and b**stride, for the nested pairs.
    """

    def __init__(self, m, f, b, sf=1.0, sb=1.0, stride=1):
        bl = min(_BLOCK, math.isqrt(m - 1) + 1)
        if m * bl > _SERIAL_PRODUCT:
            bl = max(16, _SERIAL_PRODUCT // m)
        nb = -(-m // bl)
        self._pad = nb * bl - m
        self._x = np.zeros((nb, bl))
        self.input = self._x.reshape(-1)[self._pad :]
        forward = _power_table(f, bl, False, stride, sf)
        self._table = forward @ _power_table(b, bl, True, stride, sb)
        self._table[np.abs(self._table) < _TINY] = 0.0
        self._ends = np.column_stack([forward[:, -1], self._table[:, 0]])
        self._fold = fold_f, fold_b = f**stride / sf, b**stride / (sb * sf)
        if nb <= _BLOCK:
            shift = np.eye(nb, k=1)
            fwd = fold_f * _power_table(f, nb, False, stride * bl) @ shift  # Y before
            bwd = fold_b * _power_table(b, nb, True, stride * bl) @ shift.T  # Z after
            carry = np.zeros((nb, 2, nb, 2))  # in the order of the (nb, 2) ends and folds
            carry[:, 0, :, 0], carry[:, 1, :, 1] = fwd, bwd
            carry[:, 0, :, 1] = self._table[0, 0] * fwd @ bwd
            carry[np.abs(carry) < _TINY] = 0.0
            self._carry = carry.reshape(2 * nb, 2 * nb)
        else:
            pair = (_RecurrencePair(nb, *fb, stride=stride * bl) for fb in ((f, 0.0), (0.0, b)))
            self._carry = tuple(pair)

    def solve(self) -> np.ndarray:
        """z for the x in ``input``, as a new array."""
        x = self._x
        ends = _product(x, self._ends)
        if not np.isfinite(ends).all():
            raise NumericalError("right-hand side has non-finite entries")
        if isinstance(self._carry, np.ndarray):
            x[:, :: x.shape[1] - 1] += _product(ends.reshape(1, -1), self._carry).reshape(-1, 2)
        else:
            carry_f, carry_b = self._carry
            carry_f.input[:] = ends[:, 0]
            folds = self._fold[0] * carry_f.solve()[:-1]
            x[1:, 0] += folds
            carry_b.input[:] = ends[:, 1]
            carry_b.input[1:] += self._table[0, 0] * folds
            x[:-1, -1] += self._fold[1] * carry_b.solve()[1:]
        return _product(x, self._table).reshape(-1)[self._pad :]


class _TridiagonalLU:
    """A tridiagonal matrix A with one constant stencil (l, d, u) on its
    interior rows, factored once and then solved against many right-hand
    sides in numpy.

    ``lower`` and ``upper`` are the n-1 sub- and super-diagonal entries,
    ``diag`` the n main-diagonal ones; rows 0 and n-1 are free.  With S the
    down-shift, M = (I + pS)(qI + uS^T) carries the stencil on every row but
    M[0, 0] = q, where q is the larger root of q^2 - d q + l u = 0 and
    p = l/q.  M x = y is two first-order recurrences (_RecurrencePair), ratio -p
    forward and then -u/q backward.  A = M + U V^T with U = [e_0, e_{n-1}],
    and the Woodbury identity A^-1 = M^-1 (I - U H), H = C^-1 V^T M^-1 with
    C = I + V^T M^-1 U, changes only the first and last right-hand-side
    entries, by H y.  H is built once from M^T's recurrences.  Its rows
    decay from both ends; H y skips the columns whose entries are all below
    2**-64 / n of H's largest, which sum to at most 2**-64 of it.

    The domain, checked here with NumericalError outside it: finite entries,
    n >= 3, exactly constant interior rows, real q with |p| < 1 and
    |u/q| < 1 (both recurrences contract), and a 2x2 capacitance matrix C
    that is not near singular.  An operator I - (dt/2) L with constant
    coefficients meets the first three by construction; the last two hold
    whenever the stencil is diagonally dominant, and often beyond.
    """

    def __init__(self, lower: np.ndarray, diag: np.ndarray, upper: np.ndarray):
        n = diag.size
        if n < 3:
            raise NumericalError("tridiagonal solve needs at least 3 rows")
        if not all(np.isfinite(band).all() for band in (lower, diag, upper)):
            raise NumericalError("tridiagonal matrix has non-finite entries")
        l, d, u = float(lower[0]), float(diag[1]), float(upper[1])
        if not ((lower[:-1] == l).all() and (diag[1:-1] == d).all() and (upper[1:] == u).all()):
            raise NumericalError("tridiagonal matrix has non-constant interior rows")
        disc = d * d - 4.0 * l * u
        q = 0.5 * (d + math.copysign(math.sqrt(max(disc, 0.0)), d))
        if not (disc >= 0.0 and math.isfinite(q) and abs(l) < abs(q) and abs(u) < abs(q)):
            raise NumericalError(
                "tridiagonal stencil is outside the solver's domain: its "
                "recurrences do not contract"
            )
        self._m = _RecurrencePair(n, -l / q, -u / q, sb=1.0 / q)
        # V^T's rows are A - M's rows 0 and n-1: columns 0, 1 and n-2, n-1.
        v_rows = np.zeros((2, n))
        v_rows[0, :2] = diag[0] - q, upper[0] - u
        v_rows[1, -2:] = lower[-1] - l, diag[-1] - d
        # V^T M^-1 through M^T = (qI + uS)(I + pS^T).
        m_transposed = _RecurrencePair(n, -u / q, -l / q, sf=1.0 / q)
        vm = np.empty((2, n))
        for row, out in zip(v_rows, vm):
            m_transposed.input[:] = row
            out[:] = m_transposed.solve()
        (c00, c01), (c10, c11) = vm[:, [0, -1]].tolist()
        c00 += 1.0
        c11 += 1.0
        det = c00 * c11 - c01 * c10
        norm = max(abs(c00) + abs(c10), abs(c01) + abs(c11))
        adj_norm = max(abs(c11) + abs(c10), abs(c01) + abs(c00))
        if not norm * adj_norm < _CAPACITANCE_COND * abs(det):
            raise NumericalError("tridiagonal matrix is singular or nearly so")
        h = np.array([[c11, -c01], [-c10, c00]]) @ vm / det
        self._support = np.flatnonzero(np.abs(h).max(axis=0) > 2.0**-64 / n * np.abs(h).max())
        self._h = h[:, self._support]

    def solve(self, rhs, scale=1.0):
        """A^-1 (scale * rhs), a new array."""
        t0, t1 = (self._h @ rhs[self._support]).tolist()
        x = self._m.input
        np.multiply(rhs, scale, out=x)
        x[0] -= scale * t0
        x[-1] -= scale * t1
        return self._m.solve()


def _crank_nicolson(lower, diag, upper, v, dt, n_steps, after=None):
    """March dv/dt = L v, L = tridiag(lower, diag, upper) laid out as in
    _operator_diagonals, to time n_steps * dt; return the last two states.

    A = I - (dt/2) L is factored once, and each Crank-Nicolson step takes
    v' = A^-1 (2I - A) v = 2 A^-1 v - v.  Such a step multiplies the grid's
    highest-frequency mode by (2 - a)/a, where a = d - l - u is A's interior
    stencil summed with alternating signs.  When a > 2 that factor is
    negative and a rough start rings, so the first step is then replaced by
    two implicit half-steps v' = A^-1 v (Rannacher), which damp it.
    ``after(v, v', step)`` sees each step and its length.
    """
    half = 0.5 * dt
    # 0.0 - x, not -x: a zero band entry stays +0.0 in the matrix.
    bands = (0.0 - half * lower[1:], 1.0 - half * diag, 0.0 - half * upper[:-1])
    lhs = _TridiagonalLU(*bands)
    split = 1 if bands[1][1] - bands[0][0] - bands[2][1] > 2.0 else 0
    old = v
    for step in range(n_steps + split):
        implicit = step < 2 * split
        new = lhs.solve(v, 1.0 if implicit else 2.0)
        if not implicit:
            new -= v
        if after is not None:
            after(v, new, half if implicit else dt)
        old, v = v, new
    if not np.isfinite(v).all():
        raise NumericalError("Crank-Nicolson march overflowed to non-finite values")
    return old, v


def _finalize_weights(points: np.ndarray, p: np.ndarray) -> DensityGrid:
    """Clip round-off negatives, reject genuine undershoots."""
    worst = float(np.min(p))
    if worst < -_CLIP_FLOOR:
        raise NumericalError(
            f"evolution produced weight {worst:.3e} below the clip floor"
        )
    if worst < 0.0:
        return DensityGrid(points, np.maximum(p, 0.0)).normalize()
    return DensityGrid(points, p)


def evolve_density(
    initial: DensityGrid,
    params: MarketParams,
    t: float,
    spec: FPGridSpec,
) -> DensityGrid:
    """Evolve ``initial`` forward by time t under the log-rate dynamics.

    Raises MassLeak if the initial density already touches the grid edges
    or if boundary-face fluxes accumulate beyond a 1e-8 fraction of the
    mass during the run.
    """
    if not (t > 0.0 and math.isfinite(t)):
        raise DomainError("t must be positive and finite")
    points = spec.points()
    scale = max(1.0, abs(spec.x_min), abs(spec.x_max))
    if initial.points.shape != points.shape or not np.allclose(
        initial.points, points, rtol=0.0, atol=1e-12 * scale
    ):
        raise DomainError("initial density must live on the grid given by spec")
    _check_initial_support(initial)

    h = initial.h
    nu = params.log_drift
    diffusion = 0.5 * params.sigma * params.sigma

    n_steps = spec.n_steps(t)
    dt = t / n_steps

    adv = 0.5 * nu
    dif_h = diffusion / h
    mass0 = float(np.sum(initial.weights)) * h
    leak = 0.0

    def check_leak(p, p_next, step):
        nonlocal leak
        (p0, p1), (pm, pn) = p[:2].tolist(), p[-2:].tolist()
        (q0, q1), (qm, qn) = p_next[:2].tolist(), p_next[-2:].tolist()
        mid0 = 0.5 * (p0 + q0)
        mid1 = 0.5 * (p1 + q1)
        midm = 0.5 * (pm + qm)
        midn = 0.5 * (pn + qn)
        flux_lo = -adv * (mid0 + mid1) + dif_h * (mid1 - mid0)
        flux_hi = -adv * (midm + midn) + dif_h * (midn - midm)
        leak += (abs(flux_lo) + abs(flux_hi)) * step
        if leak > _LEAK_TOL * mass0:
            raise MassLeak(
                "density reached the grid boundary during evolution; "
                "widen the grid or shorten the horizon"
            )

    bands = _operator_diagonals(nu, diffusion, h, spec.n_points)
    _, p = _crank_nicolson(*bands, initial.weights, dt, n_steps, after=check_leak)
    return _finalize_weights(points, p)
