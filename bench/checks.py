"""Independent references and output checks for the benchmark.

Nothing here calls entropic_fx: prices are checked against a
Garman-Kohlhagen reference evaluated with mpmath at 40 digits, densities
against Gaussians computed here, and simulated paths by z-scores of their
terminal mean and variance.  Each check returns a list of failure strings;
an empty list means the output passed.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

# Closed form against the 40-digit reference, absolute, per unit of
# max(u0, strike).
CLOSED_FORM_TOL = 1e-12
# The CLI's default quadrature tolerance (1e-10 absolute) plus rounding.
QUADRATURE_TOL = 2e-10
# Monte Carlo: within this many reported standard errors, plus an absolute
# floor of 1e-6 * max(u0, strike) (a hundredth of a pip on a unit rate).
# The floor is what a run with no in-the-money draw (premium 0 +/- 0)
# needs to pass when the true premium is below it; such runs are counted
# separately as zero-variance ops rather than hidden.
MC_SIGMAS = 5.0
MC_FLOOR = 1e-6
# PDE: the CLI's own `--method all` rule, 1e-3 relative on a premium
# floored at 1% of spot.
PDE_RELTOL = 1e-3
# Fokker-Planck output against the exact Gaussian, trapezoidal L1.
DENSITY_L1_TOL = 1e-3
# Maxent recovery of the GBM kernel: multipliers (relative) and kernel
# (absolute, per unit of the kernel's peak).
MAXENT_MULTIPLIER_RTOL = 1e-6
MAXENT_KERNEL_TOL = 1e-8
# Largest |z| accepted for a sample mean or variance.
Z_MAX = 5.0


def gk_reference(m: dict) -> float:
    """Garman-Kohlhagen premium of market/option dict ``m`` at 40 digits."""
    with mpmath.workdps(40):
        u0, k = mpmath.mpf(m["u0"]), mpmath.mpf(m["strike"])
        rd, rf = mpmath.mpf(m["rd"]), mpmath.mpf(m["rf"])
        sigma, t = mpmath.mpf(m["sigma"]), mpmath.mpf(m["expiry"])
        sd = sigma * mpmath.sqrt(t)
        d1 = (mpmath.log(u0 / k) + (rd - rf + sigma**2 / 2) * t) / sd
        d2 = d1 - sd
        fwd = u0 * mpmath.exp(-rf * t)
        disc_k = k * mpmath.exp(-rd * t)
        if m["kind"] == "call":
            value = fwd * mpmath.ncdf(d1) - disc_k * mpmath.ncdf(d2)
        else:
            value = disc_k * mpmath.ncdf(-d2) - fwd * mpmath.ncdf(-d1)
        return float(value)


def _scale(m: dict) -> float:
    return max(m["u0"], m["strike"])


def _finite(name: str, x) -> list[str]:
    if not isinstance(x, (int, float)) or not math.isfinite(x):
        return [f"{name}: not a finite number: {x!r}"]
    return []


def check_closed_form(premium, m: dict, ref: float) -> list[str]:
    bad = _finite("closed_form", premium)
    if not bad and abs(premium - ref) > CLOSED_FORM_TOL * _scale(m):
        bad.append(f"closed_form {premium!r} vs reference {ref!r}")
    return bad


def check_quadrature(premium, m: dict, ref: float) -> list[str]:
    bad = _finite("quadrature", premium)
    if not bad and abs(premium - ref) > QUADRATURE_TOL * max(1.0, _scale(m)):
        bad.append(f"quadrature {premium!r} vs reference {ref!r}")
    return bad


def check_mc(premium, std_error, m: dict, ref: float) -> list[str]:
    bad = _finite("monte_carlo", premium) + _finite("std_error", std_error)
    if bad:
        return bad
    band = MC_SIGMAS * std_error + MC_FLOOR * _scale(m)
    if abs(premium - ref) > band:
        bad.append(
            f"monte_carlo {premium!r} +/- {std_error!r} vs reference {ref!r}"
        )
    return bad


def check_pde(premium, m: dict, ref: float) -> list[str]:
    bad = _finite("pde", premium)
    if not bad and abs(premium - ref) > PDE_RELTOL * max(ref, 0.01 * m["u0"]):
        bad.append(f"pde {premium!r} vs reference {ref!r}")
    return bad


def log_drift(m: dict) -> float:
    return m["rd"] - m["rf"] - 0.5 * m["sigma"] ** 2


def gaussian_pdf(points: np.ndarray, mean: float, var: float) -> np.ndarray:
    return np.exp(-((points - mean) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)


def check_evolved_density(
    points: np.ndarray, weights: np.ndarray, x0: float, m: dict, t: float
) -> list[str]:
    """L1 distance of an evolved point mass to the exact Gaussian.

    The start is a Gaussian of width three grid spacings, so the exact
    answer has variance sigma^2 t plus that initial variance.
    """
    points = np.asarray(points, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if points.shape != weights.shape or points.size < 3:
        return ["density: malformed grid"]
    if not np.all(np.isfinite(weights)) or np.any(weights < 0.0):
        return ["density: weights not finite and nonnegative"]
    h = (points[-1] - points[0]) / (points.size - 1)
    exact = gaussian_pdf(
        points, x0 + log_drift(m) * t, m["sigma"] ** 2 * t + (3.0 * h) ** 2
    )
    l1 = float(np.trapezoid(np.abs(weights - exact), dx=h))
    mass = float(np.trapezoid(weights, dx=h))
    bad = []
    if not l1 <= DENSITY_L1_TOL:
        bad.append(f"density: L1 {l1:.3e} to the exact Gaussian")
    if not abs(mass - 1.0) <= 1e-8:
        bad.append(f"density: mass {mass!r}")
    return bad


def z_scores(sample: np.ndarray, mean: float, var: float) -> tuple[float, float]:
    """z of the sample mean and of the sample variance of a Gaussian sample."""
    n = sample.size
    z_mean = (float(np.mean(sample)) - mean) / math.sqrt(var / n)
    z_var = (float(np.var(sample, ddof=1)) - var) / (var * math.sqrt(2.0 / (n - 1)))
    return z_mean, z_var


def check_paths(
    times: np.ndarray, log_paths: np.ndarray, m: dict, horizon: float,
    n_paths: int, n_steps: int,
) -> list[str]:
    """Shape, time grid, common start and terminal moments of GBM paths."""
    if log_paths.shape != (n_paths, n_steps + 1) or times.shape != (n_steps + 1,):
        return [f"paths: shape {log_paths.shape}, times {times.shape}"]
    bad = []
    if not np.allclose(times, np.linspace(0.0, horizon, n_steps + 1), rtol=1e-15, atol=0.0):
        bad.append("paths: time grid")
    if not np.all(log_paths[:, 0] == math.log(m["u0"])):
        bad.append("paths: start is not ln u0")
    z_mean, z_var = z_scores(
        log_paths[:, -1],
        math.log(m["u0"]) + log_drift(m) * horizon,
        m["sigma"] ** 2 * horizon,
    )
    if not (abs(z_mean) <= Z_MAX and abs(z_var) <= Z_MAX):
        bad.append(f"paths: terminal z-scores mean {z_mean:.2f}, var {z_var:.2f}")
    return bad


def check_maxent_kernel(
    points: np.ndarray, weights: np.ndarray, multipliers, mean: float, var: float
) -> list[str]:
    """Maxent under first/second-moment constraints must give N(mean, var).

    The tilt exp(l1 x + l2 x^2) of a uniform prior is that Gaussian exactly
    when l1 = mean/var and l2 = -1/(2 var).
    """
    bad = []
    expected = (mean / var, -0.5 / var)
    got = np.asarray(multipliers, dtype=float)
    if got.shape != (2,) or not np.all(np.isfinite(got)):
        return [f"maxent: multipliers {got!r}"]
    for name, g, e in zip(("l1", "l2"), got, expected):
        if abs(g - e) > MAXENT_MULTIPLIER_RTOL * max(abs(e), 1.0):
            bad.append(f"maxent: {name} {g!r} vs {e!r}")
    exact = gaussian_pdf(np.asarray(points, dtype=float), mean, var)
    err = float(np.max(np.abs(np.asarray(weights) - exact))) / float(np.max(exact))
    if not err <= MAXENT_KERNEL_TOL:
        bad.append(f"maxent: kernel error {err:.3e} of peak")
    return bad


def read_csv_columns(path) -> tuple[list[str], np.ndarray]:
    """Header names and the numeric rows of a CSV file the CLI wrote."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, rows
