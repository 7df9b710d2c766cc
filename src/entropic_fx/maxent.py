"""Relative entropy and discrete maximum-entropy densities.

A maxent problem here is: given a prior density on a uniform grid and a set
of moment constraints ``<f_j> = t_j``, find the exponential-family tilt

    p_i  proportional to  prior_i * exp(sum_j lambda_j f_j(x_i))

whose constraint expectations match the targets.  The multipliers solve a
smooth strictly convex dual problem, handled by damped Newton iteration.
Expectations use the trapezoidal rule throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError, InfeasibleConstraints, NoConvergence, SupportViolation, require_at_least,
    require_positive,
)
from .grids import DensityGrid, require_same_grid

# Multiplier magnitude beyond which the dual iteration is declared divergent:
# targets at or outside the achievable moment range push multipliers to
# infinity, so a runaway norm is the practical infeasibility signal.
_LAMBDA_LIMIT = 1e10
_MAX_HALVINGS = 60


@dataclass(frozen=True)
class FirstMoment:
    """Constraint feature f(x) = x."""

    def sample(self, points: np.ndarray) -> np.ndarray:
        return points


@dataclass(frozen=True)
class SecondCentralMoment:
    """Constraint feature f(x) = (x - center)**2."""

    center: float = 0.0

    def sample(self, points: np.ndarray) -> np.ndarray:
        return (points - self.center) ** 2


@dataclass(frozen=True)
class ConstraintSpec:
    """Moment features paired with their target expectation values."""

    moment_fns: tuple
    targets: tuple

    def __post_init__(self):
        fns = tuple(self.moment_fns)
        targets = tuple(float(t) for t in self.targets)
        if len(fns) != len(targets):
            raise DomainError("moment_fns and targets must have equal length")
        for fn, t in zip(fns, targets):
            if not np.isfinite(t):
                raise DomainError("constraint targets must be finite")
            if isinstance(fn, SecondCentralMoment) and t <= 0.0:
                raise DomainError("second-moment targets must be positive")
        object.__setattr__(self, "moment_fns", fns)
        object.__setattr__(self, "targets", targets)

    def __len__(self) -> int:
        return len(self.moment_fns)

    def feature_matrix(self, points: np.ndarray) -> np.ndarray:
        if len(self) == 0:
            return np.empty((0, points.size))
        return np.vstack([fn.sample(points) for fn in self.moment_fns])


@dataclass(frozen=True)
class MultiplierSolution:
    """Converged multipliers with the density they induce."""

    multipliers: np.ndarray
    density: DensityGrid
    iterations: int
    residual_norm: float
    dual_path: np.ndarray = field(default_factory=lambda: np.empty(0))


def relative_entropy(p: DensityGrid, q: DensityGrid) -> float:
    """Relative entropy of ``p`` with respect to ``q``.

    Returns ``-sum_i p_i * log(p_i / q_i) * h`` with the ``0 log 0 = 0``
    convention, which is nonpositive for matching normalized densities and
    zero only when they coincide.
    """
    require_same_grid(p, q)
    pw, qw = p.weights, q.weights
    if np.any((pw > 0.0) & (qw == 0.0)):
        raise SupportViolation("p has mass where q vanishes")
    active = pw > 0.0
    terms = pw[active] * np.log(pw[active] / qw[active])
    return float(-np.sum(terms) * p.h)


def alpha_from_entropic_time(sigma: float, dt: float) -> float:
    """Continuity-constraint multiplier 1 / (sigma**2 * dt)."""
    require_positive("sigma", sigma)
    require_positive("dt", dt)
    return 1.0 / (sigma * sigma * dt)


def beta_multiplier(mu_d: float, mu_f: float, sigma: float) -> float:
    """Directionality-constraint multiplier (mu_d - mu_f) / sigma**2 - 1/2."""
    require_positive("sigma", sigma)
    return (mu_d - mu_f) / (sigma * sigma) - 0.5


def _trapezoid_weights(n: int, h: float) -> np.ndarray:
    c = np.full(n, h)
    c[0] = c[-1] = 0.5 * h
    return c


def solve_maxent(
    grid: np.ndarray,
    prior: DensityGrid,
    constraints: ConstraintSpec,
    tol: float = 1e-12,
    max_iter: int = 100,
) -> MultiplierSolution:
    """Solve the discrete maxent problem on ``grid``.

    Parameters
    ----------
    grid:
        Coordinate array; must coincide with ``prior.points``.
    prior:
        Prior density (any positive rescaling gives the same solution).
    constraints:
        Moment features and targets.  An empty spec returns the prior
        unchanged (minimal updating).
    tol:
        Convergence threshold on the max constraint violation.
    max_iter:
        Newton iteration budget.

    Returns
    -------
    MultiplierSolution
        Multipliers, induced density, accepted-step count, final residual,
        and the accepted dual-objective values (strictly decreasing).

    Raises
    ------
    InfeasibleConstraints
        If a target lies outside the moment range achievable on the grid,
        or the iteration diverges with runaway multipliers.
    NoConvergence
        If the budget is exhausted or the line search stalls short of tol.
    """
    grid = np.asarray(grid, dtype=float)
    reference = DensityGrid(grid, np.ones_like(grid))
    require_same_grid(prior, reference)
    if not (tol > 0.0):
        raise DomainError("tol must be positive")
    require_at_least("max_iter", max_iter, 1)

    if len(constraints) == 0:
        # Minimal updating: nothing to constrain, the prior is the answer.
        return MultiplierSolution(
            multipliers=np.empty(0), density=prior, iterations=0, residual_norm=0.0
        )
    prior = prior.normalize()

    # One C-ordered row per feature on the prior's support; other nodes keep 0.
    support = prior.weights > 0.0
    feats = constraints.feature_matrix(grid[support])
    targets = np.asarray(constraints.targets, dtype=float)
    for j, row in enumerate(feats):
        lo, hi = float(row.min()), float(row.max())
        if not (lo < targets[j] < hi):
            raise InfeasibleConstraints(
                f"target {targets[j]} of constraint {j} lies outside the "
                f"achievable range ({lo}, {hi}) on this grid"
            )

    c = _trapezoid_weights(grid.size, reference.h)
    base = (c * prior.weights)[support]  # quadrature-weighted prior mass
    del reference, prior  # of the arrays in grid's shape, c and support stay
    # The workspace that every dual evaluation of this solve refills.
    s, centered, weighted = np.empty(base.size), np.empty_like(feats), np.empty_like(feats)

    def dual_state(lam: np.ndarray):
        """Dual value, gradient, and covariance at lam; the induced node
        masses are left in s, where the next evaluation overwrites them."""
        s_max = float(np.max(np.matmul(lam, feats, out=s)))
        np.exp(np.subtract(s, s_max, out=s), out=s)
        np.multiply(s, base, out=s)
        z = float(np.sum(s))
        dual = s_max + np.log(z) - float(lam @ targets)
        node_mass = np.divide(s, z, out=s)  # quadrature-weighted density, sums to 1
        moments = feats @ node_mass
        grad = moments - targets
        np.subtract(feats, moments[:, None], out=centered)
        hess = np.multiply(centered, node_mass, out=weighted) @ centered.T
        return dual, grad, hess

    lam = np.zeros(feats.shape[0])
    dual, grad, hess = dual_state(lam)
    dual_path = [dual]
    iterations = 0
    residual = float(np.max(np.abs(grad)))

    while residual > tol:
        if iterations >= max_iter:
            raise NoConvergence(
                f"residual {residual:.3e} > tol {tol:.3e} after {max_iter} iterations"
            )
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            ridge = 1e-12 * max(1.0, float(np.trace(hess)))
            step = np.linalg.solve(hess + ridge * np.eye(hess.shape[0]), -grad)

        # Expected decrease under the local quadratic model.  Once it falls
        # below the float resolution of the dual value, strict descent is
        # unobservable, so the first finite trial is accepted outright.
        predicted = -0.5 * float(grad @ step)
        full_step = predicted <= 8.0 * np.finfo(float).eps * (1.0 + abs(dual))
        # The trial accepted is the last one evaluated, so s holds its masses.
        scale = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            trial = lam + scale * step
            t_dual, t_grad, t_hess = dual_state(trial)
            if np.isfinite(t_dual) and (full_step or t_dual < dual):
                break
            scale *= 0.5
        else:
            raise NoConvergence(
                f"line search stalled at residual {residual:.3e} (tol {tol:.3e})"
            )

        if t_dual < dual:
            dual_path.append(t_dual)
        lam, dual, grad, hess = trial, t_dual, t_grad, t_hess
        iterations += 1
        residual = float(np.max(np.abs(grad)))
        if not np.all(np.isfinite(lam)) or np.max(np.abs(lam)) > _LAMBDA_LIMIT:
            raise InfeasibleConstraints(
                "multipliers diverged; targets unattainable on this grid"
            )

    # Convert quadrature-weighted node masses back to density values.
    del feats, base, centered, weighted
    weights = np.zeros(grid.size)
    weights[support] = np.divide(s, c[support], out=s)
    density = DensityGrid(grid, weights).normalize()
    return MultiplierSolution(
        multipliers=lam,
        density=density,
        iterations=iterations,
        residual_norm=residual,
        dual_path=np.asarray(dual_path),
    )
