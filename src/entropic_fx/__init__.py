"""Maximum-entropy FX dynamics: densities, simulation, and option pricing.

Each public name loads its module on first use (PEP 562), so that
importing the package, and the closed form, load no numpy.
"""

import importlib

__version__ = "0.1.0"

# Module -> the public names it defines; a module's own name is the module.
_SOURCES = {
    "errors": (
        "errors", "DomainError", "GridMismatch", "GridTooNarrow", "InfeasibleConstraints",
        "MassLeak", "MeasureError", "NoConvergence", "NumericalError", "SupportViolation",
        "ToleranceNotMet",
    ),
    "market": (
        "PHYSICAL", "RISK_NEUTRAL", "MarketParams", "OptionSpec", "PriceResult",
        "closed_form_price", "log_coordinate", "parity_residual", "std_normal_cdf",
    ),
    "dynamics": (
        "dynamics", "PathSet", "TransitionDensity", "block_rng", "paths_to_csv",
        "simulate_paths", "transition_density", "transition_pdf",
    ),
    "fokker_planck": (
        "fokker_planck", "FPGridSpec", "analytic_density", "default_grid",
        "evolve_density", "point_mass_density",
    ),
    "grids": (
        "grids", "DensityGrid", "density_to_csv", "gaussian_density", "l1_distance",
        "require_same_grid", "same_grid", "uniform_density",
    ),
    "maxent": (
        "maxent", "ConstraintSpec", "FirstMoment", "MultiplierSolution",
        "SecondCentralMoment", "alpha_from_entropic_time", "beta_multiplier",
        "relative_entropy", "solve_maxent",
    ),
    "pricing": ("pricing", "default_pde_grid", "mc_price", "pde_price", "quadrature_price"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_MODULE_OF[name]}", __name__)
    return module if name == _MODULE_OF[name] else getattr(module, name)
