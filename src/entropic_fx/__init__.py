"""Maximum-entropy FX dynamics: densities, simulation, and option pricing."""

from .dynamics import (
    PHYSICAL,
    RISK_NEUTRAL,
    MarketParams,
    PathSet,
    TransitionDensity,
    block_rng,
    log_coordinate,
    paths_to_csv,
    simulate_paths,
    transition_density,
    transition_pdf,
)
from .errors import (
    DomainError,
    GridMismatch,
    GridTooNarrow,
    InfeasibleConstraints,
    MassLeak,
    MeasureError,
    NoConvergence,
    NumericalError,
    SupportViolation,
    ToleranceNotMet,
)
from .fokker_planck import (
    FPGridSpec,
    analytic_density,
    default_grid,
    evolve_density,
    point_mass_density,
)
from .grids import (
    DensityGrid,
    density_from_csv,
    density_to_csv,
    gaussian_density,
    l1_distance,
    require_same_grid,
    same_grid,
    uniform_density,
)
from .maxent import (
    ConstraintSpec,
    FirstMoment,
    MultiplierSolution,
    SecondCentralMoment,
    TabulatedMoment,
    alpha_from_entropic_time,
    beta_multiplier,
    relative_entropy,
    solve_maxent,
    variance_from_alpha,
)
from .pricing import (
    OptionSpec,
    PriceResult,
    closed_form_price,
    d1_d2,
    default_pde_grid,
    gk_call,
    gk_put,
    mc_price,
    parity_residual,
    pde_price,
    quadrature_price,
    std_normal_cdf,
)

__version__ = "0.1.0"
