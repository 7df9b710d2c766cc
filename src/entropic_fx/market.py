"""Market inputs, option contracts and the Garman-Kohlhagen closed form.

Everything here needs only ``math``, so a closed-form price or a parity
check loads no numpy.  ``dynamics`` and ``pricing`` re-export these names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from .errors import DomainError, MeasureError, NumericalError, require_positive

PHYSICAL = "physical"
RISK_NEUTRAL = "risk_neutral"
_MEASURES = (PHYSICAL, RISK_NEUTRAL)

CALL = "call"
PUT = "put"
_KINDS = (CALL, PUT)

_METHODS = ("closed_form", "quadrature", "monte_carlo", "pde")


@dataclass(frozen=True)
class MarketParams:
    """Spot rate, drift pair, volatility, and the measure they live under.

    Under the physical measure the drifts are the observed domestic/foreign
    drifts; under the risk-neutral measure they are the risk-free rates
    r_d, r_f.  Pricing routines require the latter.
    """

    u0: float
    drift_d: float
    drift_f: float
    sigma: float
    measure_tag: str = PHYSICAL

    def __post_init__(self):
        require_positive("u0", self.u0)
        require_positive("sigma", self.sigma)
        if not (math.isfinite(self.drift_d) and math.isfinite(self.drift_f)):
            raise DomainError("drifts must be finite")
        if not math.isfinite(self.log_drift):
            raise DomainError("log drift drift_d - drift_f - sigma**2/2 overflows")
        if self.measure_tag not in _MEASURES:
            raise DomainError(
                f"measure_tag must be one of {_MEASURES}, got {self.measure_tag!r}"
            )

    @classmethod
    def risk_neutral(cls, u0: float, r_d: float, r_f: float, sigma: float) -> "MarketParams":
        return cls(u0=u0, drift_d=r_d, drift_f=r_f, sigma=sigma, measure_tag=RISK_NEUTRAL)

    @property
    def log_drift(self) -> float:
        """Drift of ln u per unit time: drift_d - drift_f - sigma**2 / 2."""
        return self.drift_d - self.drift_f - 0.5 * self.sigma * self.sigma

    def with_spot(self, u0: float) -> "MarketParams":
        return replace(self, u0=u0)


def log_coordinate(u: float) -> float:
    """Scale-invariant coordinate ln(u) of an exchange rate."""
    require_positive("exchange rate", u)
    return math.log(u)


def _check_contract(strike: float, expiry: float) -> None:
    require_positive("strike", strike)
    require_positive("expiry", expiry)


@dataclass(frozen=True)
class OptionSpec:
    """European option contract: kind, strike, expiry."""

    kind: str
    strike: float
    expiry: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        _check_contract(self.strike, self.expiry)


@dataclass(frozen=True)
class PriceResult:
    """Premium plus the method that produced it and its diagnostics."""

    premium: float
    method: str
    std_error: Optional[float] = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in _METHODS:
            raise DomainError(f"method must be one of {_METHODS}, got {self.method!r}")
        _check_premium(self.premium)

    def to_json_dict(self) -> dict:
        return {
            "premium": self.premium,
            "method": self.method,
            "std_error": self.std_error,
            "d1": self.diagnostics.get("d1"),
            "d2": self.diagnostics.get("d2"),
        }


def _discount(rate: float, t: float) -> float:
    """Discount factor e^{-rate t}; NumericalError where it overflows a float."""
    try:
        return math.exp(-rate * t)
    except OverflowError:
        raise NumericalError(
            f"discount factor exp({-rate * t!r}) overflows a float"
        ) from None


def _check_premium(premium: float) -> None:
    if not math.isfinite(premium):
        raise NumericalError("premium must be finite")
    if premium < -1e-10:
        raise NumericalError(f"premium {premium:.3e} is negative")


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function.

    The erfc tail keeps relative accuracy for large negative x (no
    underflow to zero before x = -37), and evaluating the smaller tail
    first makes N(x) + N(-x) sum to exactly 1.
    """
    t = 0.5 * math.erfc(abs(x) / math.sqrt(2.0))
    return t if x <= 0.0 else 1.0 - t


def _require_risk_neutral(params: MarketParams) -> None:
    if params.measure_tag != RISK_NEUTRAL:
        raise MeasureError(
            "pricing requires risk-neutral drifts; got measure_tag "
            f"{params.measure_tag!r}"
        )


def _d1_d2(params: MarketParams, strike: float, expiry: float) -> tuple[float, float]:
    sig_sqrt_t = params.sigma * math.sqrt(expiry)
    if sig_sqrt_t == 0.0:
        raise DomainError("sigma * sqrt(expiry) must be positive")
    num = (
        math.log(params.u0 / strike)
        + (params.drift_d - params.drift_f + 0.5 * params.sigma**2) * expiry
    )
    d1 = num / sig_sqrt_t
    return d1, d1 - sig_sqrt_t


def _gk_premium(
    kind: str, spot: float, strike_pv: float, d1: float, d2: float
) -> float:
    """s (spot N(s d1) - K' N(s d2)), s = +1 call, -1 put, from the discounted
    legs spot = u0 e^{-rf T} and K' = K e^{-rd T}."""
    s = 1.0 if kind == CALL else -1.0
    spot_leg = spot * std_normal_cdf(s * d1)
    strike_leg = strike_pv * std_normal_cdf(s * d2)
    # Subtracting in the sign's order, not multiplying by s, keeps a put
    # whose legs cancel exactly at +0.0.
    return spot_leg - strike_leg if kind == CALL else strike_leg - spot_leg


def closed_form_price(params: MarketParams, opt: OptionSpec) -> PriceResult:
    """Garman-Kohlhagen premium; d1 (with +sigma^2/2) and d2 = d1 - sigma*sqrt(T)
    as diagnostics.  Call: u0 e^{-rf T} N(d1) - K e^{-rd T} N(d2); put:
    K e^{-rd T} N(-d2) - u0 e^{-rf T} N(-d1)."""
    _require_risk_neutral(params)
    d1, d2 = _d1_d2(params, opt.strike, opt.expiry)
    spot = params.u0 * _discount(params.drift_f, opt.expiry)
    strike_pv = opt.strike * _discount(params.drift_d, opt.expiry)
    premium = _gk_premium(opt.kind, spot, strike_pv, d1, d2)
    return PriceResult(
        premium=premium, method="closed_form", diagnostics={"d1": d1, "d2": d2}
    )


def parity_residual(
    params: MarketParams, strike: float, expiry: float
) -> float:
    """C - P - (u0 e^{-rf T} - K e^{-rd T}); zero up to rounding.

    C and P are computed separately from one d1/d2 pair, exactly as
    ``closed_form_price`` computes them, and checked as premiums are.
    """
    _check_contract(strike, expiry)
    _require_risk_neutral(params)
    d1, d2 = _d1_d2(params, strike, expiry)
    spot = params.u0 * _discount(params.drift_f, expiry)
    strike_pv = strike * _discount(params.drift_d, expiry)
    call = _gk_premium(CALL, spot, strike_pv, d1, d2)
    put = _gk_premium(PUT, spot, strike_pv, d1, d2)
    _check_premium(call)
    _check_premium(put)
    return call - put - (spot - strike_pv)
