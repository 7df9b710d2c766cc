"""Exception types shared across the package.

Two families matter to callers: invalid inputs (``DomainError`` and friends,
mapped to exit code 2 by the CLI) and numerical failures discovered mid-run
(``NumericalError`` subclasses, exit code 3).
"""

import math


class DomainError(ValueError):
    """An input value is outside the operation's domain (e.g. sigma <= 0)."""


def require_positive(name: str, value: float) -> None:
    """Raise DomainError unless value is positive and finite."""
    if not (value > 0.0 and math.isfinite(value)):
        raise DomainError(f"{name} must be positive and finite")


def require_at_least(name: str, value: int, low: int) -> None:
    """Raise DomainError if value is below low."""
    if value < low:
        raise DomainError(f"{name} must be at least {low}")


class GridMismatch(ValueError):
    """Two density grids that must share coordinates do not."""


class SupportViolation(ValueError):
    """A density places mass where its reference density has none."""


class NumericalError(RuntimeError):
    """Base class for failures of a numerical procedure at runtime."""


class NoConvergence(NumericalError):
    """An iterative solver exhausted its iteration budget."""


class InfeasibleConstraints(NumericalError):
    """Moment targets are unattainable on the truncated grid."""


class MassLeak(NumericalError):
    """Probability mass reached the grid boundary; the grid is too small."""


class GridTooNarrow(NumericalError):
    """A PDE grid does not give the solution enough room around spot/strike."""


class ToleranceNotMet(NumericalError):
    """Adaptive refinement stalled before reaching the requested tolerance."""


class MeasureError(NumericalError):
    """A pricing routine was called with physical-measure drifts."""
