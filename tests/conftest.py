import io

import numpy as np
import pytest

from entropic_fx import DensityGrid, MarketParams, OptionSpec

# Fixed pricing battery: (kind, strike, sigma, expiry, r_d, r_f) with spot
# 1.0 throughout.  Spans moneyness 0.5 to 2, sigma 0.05 to 0.6, expiry 0.1
# to 5, and rates -0.01 to 0.1, while keeping every premium large enough
# that relative comparisons stay meaningful.
BATTERY = [
    ("call", 1.00, 0.20, 1.0, 0.05, 0.02),
    ("put", 1.00, 0.20, 1.0, 0.05, 0.02),
    ("call", 1.00, 0.05, 0.1, 0.03, 0.01),
    ("put", 1.00, 0.05, 0.1, -0.01, 0.10),
    ("call", 0.80, 0.05, 1.0, 0.02, 0.00),
    ("put", 1.25, 0.05, 1.0, 0.00, 0.02),
    ("call", 2.00, 0.60, 5.0, 0.10, 0.00),
    ("put", 0.50, 0.60, 5.0, 0.00, 0.10),
    ("call", 0.50, 0.30, 2.0, 0.05, 0.05),
    ("put", 2.00, 0.30, 2.0, 0.05, 0.05),
    ("call", 1.10, 0.35, 0.5, 0.08, 0.03),
    ("put", 0.90, 0.35, 0.5, 0.03, 0.08),
    ("call", 1.00, 0.60, 0.1, -0.01, -0.01),
    ("put", 1.00, 0.05, 5.0, 0.02, 0.02),
    ("call", 1.50, 0.45, 3.0, 0.06, 0.01),
    ("put", 0.67, 0.45, 3.0, 0.01, 0.06),
    ("call", 0.95, 0.10, 0.25, 0.10, 0.10),
    ("put", 1.05, 0.10, 0.25, 0.10, -0.01),
    ("call", 1.00, 0.25, 5.0, 0.04, 0.07),
    ("put", 1.00, 0.55, 2.5, 0.07, 0.04),
]


def battery_case(row):
    kind, strike, sigma, expiry, r_d, r_f = row
    market = MarketParams.risk_neutral(1.0, r_d, r_f, sigma)
    option = OptionSpec(kind, strike, expiry)
    return market, option


@pytest.fixture
def std_market():
    return MarketParams.risk_neutral(1.0, 0.05, 0.02, 0.2)


@pytest.fixture
def std_call():
    return OptionSpec("call", 1.0, 1.0)


@pytest.fixture
def std_put():
    return OptionSpec("put", 1.0, 1.0)


def same_bits(a, b) -> bool:
    """Equal to the bit, as float64 arrays or scalars: 0.0 and -0.0 differ."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def read_density_csv(text: str) -> DensityGrid:
    """The density an ``x,p`` CSV holds; "%.17g" values read back exactly."""
    header, _, body = text.partition("\n")
    assert header == "x,p"
    table = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    return DensityGrid(table[:, 0], table[:, 1])


def operator_diagonals(nu: float, diffusion: float, h: float, n: int):
    """Tridiagonal Fokker-Planck generator L with zero-flux boundary faces;
    its interior rows are the stencil of the exact-flow references.

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


def apply_tridiag(lower, diag, upper, p):
    """L p for L = tridiag(lower, diag, upper) laid out as in operator_diagonals."""
    out = diag * p
    out[1:] += lower[1:] * p[:-1]
    out[:-1] += upper[:-1] * p[1:]
    return out
