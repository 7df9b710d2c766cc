"""European FX option pricing by four independent routes.

Closed form, Gaussian quadrature of the terminal density, Monte Carlo with
exact terminal sampling, and a backward PDE solve.  The routes share only
the market inputs, so agreement between them is a real consistency check
rather than a tautology.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Optional

import numpy as np

from .dynamics import _require_streams, _run_blocks
from .errors import (
    DomainError, GridTooNarrow, NumericalError, ToleranceNotMet, require_at_least,
    require_positive,
)
from .fokker_planck import FPGridSpec, _crank_nicolson_factor
from .market import (  # numpy-free; the closed form's names are re-exported here
    CALL, PUT, RISK_NEUTRAL, MarketParams, OptionSpec, PriceResult, _discount,
    _require_risk_neutral, closed_form_price, log_coordinate, parity_residual,
    std_normal_cdf,
)

# Quadrature integrates the payoff over this many terminal-log standard
# deviations around the mean.
_QUAD_SIGMAS = 12.0
# PDE grids must reach at least this many sigma*sqrt(T) beyond the strike,
# and the log forward must not sit in the outer tenth of the grid.
_PDE_STRIKE_SIGMAS = 8.0
_PDE_EDGE_FRACTION = 0.1


def _payoff_in_place(opt: OptionSpec, rate: np.ndarray) -> np.ndarray:
    """max(rate - strike, 0) or max(strike - rate, 0), over a float array of rates."""
    if opt.kind == CALL:
        np.subtract(rate, opt.strike, out=rate)
    else:
        np.subtract(opt.strike, rate, out=rate)
    return np.maximum(rate, 0.0, out=rate)


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes on [0, 1] of the 16- then the 32-point Gauss-Legendre rule, and
    each rule's weights; built on first use, not at import, and read-only."""
    from numpy.polynomial.legendre import leggauss

    (t_lo, w_lo), (t_hi, w_hi) = leggauss(16), leggauss(32)
    rule = (0.5 * np.concatenate((t_lo, t_hi)) + 0.5, 0.5 * w_lo, 0.5 * w_hi)
    for a in rule:
        a.flags.writeable = False
    return rule


def quadrature_price(
    params: MarketParams, opt: OptionSpec, tol: float = 1e-10
) -> PriceResult:
    """Discounted expectation of the payoff under the terminal log density.

    Integrates payoff(e^y) against the Gaussian law of y = ln u_T over the
    mean +/- 12 standard deviations, clipped to where the payoff is
    nonzero, by composite Gauss-Legendre rules on panels at most one
    standard deviation wide.  ``tol`` is relative to max(1, u0, strike),
    the scale of the premium.  Raises ToleranceNotMet if the error bound
    exceeds ``tol * max(1, u0, strike)``.
    """
    _require_risk_neutral(params)
    require_positive("tol", tol)
    abs_tol = tol * max(1.0, params.u0, opt.strike)
    t = opt.expiry
    mean = log_coordinate(params.u0) + params.log_drift * t
    sd = params.sigma * math.sqrt(t)
    discount = _discount(params.drift_d, t)
    strike_z = (math.log(opt.strike) - mean) / sd

    # Integrate in standardized units z = (ln u_T - mean)/sd so the
    # integrand stays O(payoff) regardless of how small sd is.  Only the
    # live side of the strike is integrated, where the integrand is
    # analytic; one outside the window is an empty panel worth zero.
    call = opt.kind == CALL
    lo = max(-_QUAD_SIGMAS, strike_z) if call else -_QUAD_SIGMAS
    hi = max(lo, _QUAD_SIGMAS if call else min(_QUAD_SIGMAS, strike_z))
    nodes, w_lo, w_hi = _gauss_legendre()
    n_panels = max(1, math.ceil(hi - lo))
    width = (hi - lo) / n_panels
    # Overflow only where the window misses the mass: the bound is then inf.
    with np.errstate(over="ignore", invalid="ignore"):
        z = lo + width * (np.arange(n_panels)[:, None] + nodes)
        rate = np.exp(mean + sd * z)
        density = np.exp(-0.5 * z * z) * (width / math.sqrt(2.0 * math.pi))
        f = (_payoff_in_place(opt, rate.copy()) * density).sum(axis=0)
        value, low = float(f[w_lo.size :] @ w_hi), float(f[: w_lo.size] @ w_lo)
        # The gap between rules, floored at QUADPACK's 50 eps rounding
        # allowance on the integral of e^y + K (the terms the payoff
        # subtracts), plus the window's missed mass of e^y (call) or K (put).
        terms = ((rate + opt.strike) * density).sum(axis=0)[w_lo.size :] @ w_hi
        err = max(abs(value - low), 50.0 * sys.float_info.epsilon * float(terms))
        scale, shift = (np.exp(mean + 0.5 * sd * sd), sd) if call else (opt.strike, 0.0)
        err += 2.0 * scale * std_normal_cdf(shift - _QUAD_SIGMAS)
    if not discount * err <= abs_tol:
        raise ToleranceNotMet(
            f"quadrature error bound {discount * err:.3e} exceeds tol {abs_tol:.3e}"
        )
    return PriceResult(
        premium=discount * value,
        method="quadrature",
        std_error=None,
        diagnostics={"abs_error_bound": discount * err},
    )


def _moments(samples: np.ndarray) -> tuple[int, float, float, int]:
    """(count, mean, sum of squared deviations, nonzero count) of samples,
    which it overwrites.

    The operations are np.std's, without BLAS: a np.dot of the deviations
    would start BLAS threads inside each worker thread.
    """
    n_hits = int(np.count_nonzero(samples))
    mean = float(np.mean(samples))
    samples -= mean
    return samples.size, mean, float(np.square(samples, out=samples).sum()), n_hits


def mc_price(
    params: MarketParams,
    opt: OptionSpec,
    n_paths: int,
    seed: int,
    antithetic: bool = True,
    n_partitions: int = 1,
) -> PriceResult:
    """Monte Carlo premium with the terminal rate drawn exactly.

    The terminal log rate is sampled in a single exact Gaussian step.
    Antithetic variates pair each draw with its mirror image and average
    within pairs, which cancels the odd part of the payoff's dependence on
    the noise; each pair is one sample, and the standard error needs two.
    The draws come in blocks with their own streams, so the result does not
    depend on ``n_partitions``, the number of threads the blocks run on.
    Each block reduces its samples to (count, mean, sum of squared
    deviations) in place, and the blocks' moments are merged in block
    order.  The call allocates its buffers once: one block per thread, and
    a second for the mirror draws when antithetic, at any n_paths.
    ``diagnostics["n_hits"]`` counts the nonzero samples (an antithetic
    pair is a hit if either leg pays); with none, ``std_error`` is 0.
    """
    _require_risk_neutral(params)
    require_at_least("n_paths", n_paths, 2)
    _require_streams(seed, n_partitions)
    if antithetic and n_paths % 2 != 0:
        raise DomainError("antithetic sampling requires an even n_paths")
    if antithetic and n_paths < 4:
        # One pair is one sample, which leaves no degree of freedom for
        # the standard error.
        raise DomainError("antithetic sampling requires n_paths of at least 4")

    t = opt.expiry
    discount = _discount(params.drift_d, t)
    mean = log_coordinate(params.u0) + params.log_drift * t
    sd = params.sigma * math.sqrt(t)
    n_samples = n_paths // 2 if antithetic else n_paths

    def fill(rng: np.random.Generator, lo: int, hi: int, work: np.ndarray) -> tuple:
        # Each block of draws becomes its samples in place, in the worker's
        # buffers, by the operations of payoff(exp(mean +/- sd * z)) and
        # 0.5 * (up + dn).
        up = work[0, : hi - lo]
        rng.standard_normal(out=up)
        up *= sd
        if antithetic:
            dn = np.subtract(mean, up, out=work[1, : hi - lo])
        up += mean
        _payoff_in_place(opt, np.exp(up, out=up))
        if antithetic:
            _payoff_in_place(opt, np.exp(dn, out=dn))
            up += dn
            up *= 0.5
        return _moments(up)

    # Chan, Golub & LeVeque's update for the moments of two sets, in block
    # order from block 0's own moments, not from zeros, so that one block
    # gives np.mean's and np.std's values by construction.
    blocks = _run_blocks(n_samples, 1, seed, n_partitions, fill, 2 if antithetic else 1)
    n, sample_mean, m2, n_hits = blocks[0]
    for n_b, mean_b, m2_b, hits_b in blocks[1:]:
        delta = mean_b - sample_mean
        total = n + n_b
        sample_mean += delta * n_b / total
        m2 += m2_b + delta * delta * n * n_b / total
        n = total
        n_hits += hits_b

    premium = discount * sample_mean
    std_error = discount * math.sqrt(m2 / (n - 1)) / math.sqrt(n)
    return PriceResult(
        premium=premium,
        method="monte_carlo",
        std_error=std_error,
        diagnostics={
            "n_paths": n_paths,
            "n_samples": n,
            "n_hits": n_hits,
            "antithetic": antithetic,
            "seed": int(seed),
        },
    )


def _log_forward(params: MarketParams, t: float) -> float:
    return log_coordinate(params.u0) + (params.drift_d - params.drift_f) * t


def default_pde_grid(
    params: MarketParams,
    opt: OptionSpec,
    n_points: int = 1601,
    n_time_steps: int = 400,
) -> FPGridSpec:
    """Grid of log rates at expiry wide enough for pde_price's guards.

    Centered between the log forward and the log strike, extended ten
    sigma*sqrt(T) plus the forward's drift sigma^2 T / 2 on each side.
    """
    y0 = _log_forward(params, opt.expiry)
    ln_k = math.log(opt.strike)
    width = params.sigma * math.sqrt(opt.expiry)
    half = 0.5 * abs(y0 - ln_k) + 10.0 * width + 0.5 * width * width
    center = 0.5 * (y0 + ln_k)
    return FPGridSpec.from_steps(
        center - half, center + half, n_points, opt.expiry, n_time_steps
    )


def _put_stencil(sigma: float, h: float) -> tuple[float, float, float]:
    """Interior stencil (l, d, u) of L = (sigma^2/2)(d_yy - d_y) on a grid of
    step h, its couplings in the ratio e^h so that 1 and e^y solve it
    exactly on the grid too."""
    tail = math.exp(-h)
    lower = sigma * sigma / (h * h) / (1.0 + tail)
    upper = lower * tail
    return lower, -(lower + upper), upper


def _solve_put(sigma, strike, y, y0, t, n_steps, rows):
    """W, the undiscounted put, on the nodes ``rows`` of grid y after
    n_steps Crank-Nicolson steps over time t; and the scaled defect of the
    last step on the interior nodes among them (0.0 for one step).

    The end rows keep the payoff's end values K - e^y and 0.  Subtracting
    Phi = a + b e^(y - y_max) through them leaves V with zero ends, and
    Z = V e^(-(y - y0)/2) turns the interior stencil into a symmetric one
    with coupling sqrt(l u), whose eigenvectors are sines: one DST-I (an
    rfft of Z's odd extension), one multiplier per mode, and the inverse.
    Undoing that scale amplifies the transform's rounding by e^(|y - y0|/2),
    so W is reliable near y0 only.  The scale's exponent is clipped to
    +-700: far below y0 and the strike V is exactly 0, and far above y0 Z
    is negligible.
    """
    n = y.size
    h = float(y[1] - y[0])
    stencil = lower, diag, upper = _put_stencil(sigma, h)
    # e^y overflows only above the strike, where the put pays 0.
    with np.errstate(over="ignore"):
        payoff = np.maximum(strike - np.exp(y), 0.0)
    phi = payoff[0] * np.expm1(y - y[-1]) / math.expm1(y[0] - y[-1])
    scale = np.exp(np.clip(0.5 * (y0 - y), -700.0, 700.0))
    z = np.multiply(np.subtract(payoff, phi, out=payoff), scale, out=payoff)
    # Of the arrays in y's shape, only the rows read are kept.
    scale, phi = scale[rows].copy(), phi[rows].copy()
    spectrum = np.fft.rfft(np.concatenate((z, -z[-2:0:-1])))
    del payoff, z
    # sqrt(l u) = l e^(-h/2); the eigenvalues d + 2 sqrt(l u) cos(theta),
    # without the cancellation of their terms.
    theta = (math.pi / (n - 1)) * np.arange(n)
    couple = lower * math.exp(-0.5 * h)
    lam = -lower * math.expm1(-0.5 * h) ** 2 - 4.0 * couple * np.sin(0.5 * theta) ** 2
    del theta
    dtau = t / n_steps
    steps = (n_steps - 1, n_steps) if n_steps > 1 else (n_steps,)

    def rows_after(k):
        # One inverse transform at a time, of the product formed in the
        # factor's memory, keeps peak memory down; the rows read are copied
        # so that no transform outlives its step.
        factor = _crank_nicolson_factor(lam, stencil, dtau, k)
        return np.fft.irfft(np.multiply(spectrum, factor, out=factor), 2 * (n - 1))[:n][rows].copy()

    w = np.array([rows_after(k) for k in steps]) / scale + phi
    if not np.isfinite(w).all():
        raise NumericalError("PDE values overflow on this grid")
    if n_steps == 1:
        return w[0], 0.0
    previous, values = w
    mid = 0.5 * (previous + values)
    defect = (values - previous)[1:-1] / dtau - (
        lower * mid[:-2] + diag * mid[1:-1] + upper * mid[2:]
    )
    return values, float(np.max(np.abs(defect))) / (1.0 + float(np.max(np.abs(mid))))


def pde_price(
    params: MarketParams, opt: OptionSpec, grid: Optional[FPGridSpec] = None
) -> PriceResult:
    """Crank-Nicolson solve for the undiscounted put on the log forward; a
    call by static replication.

    In time-to-maturity tau and the log forward y = ln u + (rd - rf) tau, the
    undiscounted put W = e^{rd tau} P satisfies W_tau = (sigma^2/2)(W_yy - W_y)
    whatever the rates.  Its values at the grid's ends, K - e^y and 0, solve
    that equation and do not change with tau, so the grid is one of log rates
    at expiry and its end rows keep the payoff's end values.  Where
    Crank-Nicolson would ring on the payoff kink (on every default grid), the
    first step is split into two implicit half-steps that damp it.  All the
    steps are one multiplier per sine mode (_solve_put).

    The put premium is e^{-rd T} W(T, y0) at y0 = ln u0 + (rd - rf) T, read
    off the Lagrange cubic through the four nodes nearest y0 (all three on a
    three-point grid), so a y0 on a node reads that node's value.  A call is
    that put plus u0 e^{-rf T} - K e^{-rd T}: static replication, not the
    closed form.  The ``residual`` diagnostic is the scaled defect of the last
    Crank-Nicolson step's equations on the interior nodes around the read, a
    check on the transforms; it is 0.0 when n_time_steps is 1.  Values that
    overflow during the solve raise NumericalError.
    """
    _require_risk_neutral(params)
    if grid is None:
        grid = default_pde_grid(params, opt)

    y = grid.points()
    n = grid.n_points
    t = opt.expiry
    y0 = _log_forward(params, t)
    ln_k = math.log(opt.strike)
    width = params.sigma * math.sqrt(t)

    if not (y[0] < y0 < y[-1]):
        raise GridTooNarrow("log forward lies outside the grid")
    if ln_k - y[0] < _PDE_STRIKE_SIGMAS * width or y[-1] - ln_k < _PDE_STRIKE_SIGMAS * width:
        raise GridTooNarrow(
            "grid must extend at least eight sigma*sqrt(T) beyond the strike"
        )
    span = y[-1] - y[0]
    if min(y0 - y[0], y[-1] - y0) < _PDE_EDGE_FRACTION * span:
        raise GridTooNarrow("log forward sits within 10% of the grid boundary")

    n_steps = grid.n_steps(t)
    # The four nodes read, and one more on each side for the residual.
    j = max(0, min(int(np.searchsorted(y, y0)) - 2, n - 4))
    first = max(0, j - 1)
    try:
        with np.errstate(over="raise", invalid="raise"):
            values, residual = _solve_put(
                params.sigma, opt.strike, y, y0, t, n_steps, slice(first, j + 5)
            )
    except FloatingPointError as exc:
        raise NumericalError(f"PDE values overflow on this grid ({exc})") from exc

    near = y[j : j + 4]
    weights = [np.prod((y0 - near[near != yk]) / (yk - near[near != yk])) for yk in near]
    disc_d = _discount(params.drift_d, t)
    premium = disc_d * float(np.dot(weights, values[j - first : j - first + 4]))
    if opt.kind == CALL:
        premium += params.u0 * _discount(params.drift_f, t) - opt.strike * disc_d
    return PriceResult(
        premium=premium,
        method="pde",
        std_error=None,
        diagnostics={"residual": residual, "n_points": n, "n_time_steps": n_steps},
    )
