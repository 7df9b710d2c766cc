"""Every "must be positive and finite" and "must be at least N" check, by
entry point, bad value and the exact DomainError message it gives."""

import json
import math

import numpy as np
import pytest

from entropic_fx import (
    DomainError,
    FPGridSpec,
    MarketParams,
    OptionSpec,
    PathSet,
    TransitionDensity,
    alpha_from_entropic_time,
    analytic_density,
    beta_multiplier,
    default_grid,
    default_pde_grid,
    evolve_density,
    gaussian_density,
    log_coordinate,
    mc_price,
    point_mass_density,
    quadrature_price,
    simulate_paths,
    solve_maxent,
    transition_density,
)
from entropic_fx import cli, maxent

MARKET = MarketParams(1.0, 0.05, 0.02, 0.2)
RN = MarketParams.risk_neutral(1.0, 0.05, 0.02, 0.2)
CALL = OptionSpec("call", 1.0, 1.0)
SPEC = FPGridSpec(-1.0, 1.0, 11)
POINTS = np.linspace(-1.0, 1.0, 11)
PRIOR = gaussian_density(POINTS, 0.0, 0.1)
GRID = ["--x-min", "-1", "--x-max", "1"]
PDE = ["price", "--u0", "1", "--rd", "0.05", "--rf", "0.02", "--sigma", "0.2",
       "--strike", "1", "--expiry", "1", "--kind", "call", "--method", "pde"]


def _cli(*argv):
    """An entry point whose result is CLI argv: argv, then the value."""
    return lambda value: [*argv, repr(value)]


# Sites that take any float: (id, entry point, message).  An entry point is
# a function of the bad value; a list it returns is CLI argv to run.
POSITIVE = [
    ("cli.maxent_check.k", _cli("maxent-check", "--k"), "k must be positive and finite"),
    ("cli.maxent_check.spacing", _cli("maxent-check", "--spacing"),
     "spacing must be positive and finite"),
    ("cli.maxent_check.extent_sigmas", _cli("maxent-check", "--extent-sigmas"),
     "extent_sigmas must be positive and finite"),
    ("cli.maxent_check.k_prime", _cli("maxent-check", "--k-prime"),
     "k_prime must be positive and finite"),
    ("cli.maxent_check.bound", _cli("maxent-check", "--bound"),
     "bound must be positive and finite"),
    ("cli.fokker_planck.t", _cli("fokker-planck", "--t"), "t must be positive and finite"),
    ("cli.fokker_planck.t_given_grid", _cli("fokker-planck", *GRID, "--t"),
     "t must be positive and finite"),
    ("dynamics.TransitionDensity.log_var", lambda v: TransitionDensity(0.0, v, 1.0),
     "log_var must be positive and finite"),
    ("dynamics.TransitionDensity.dt", lambda v: TransitionDensity(0.0, 0.04, v),
     "dt must be positive and finite"),
    ("dynamics.transition_density.dt", lambda v: transition_density(MARKET, v),
     "dt must be positive and finite"),
    ("dynamics.simulate_paths.horizon", lambda v: simulate_paths(MARKET, v, 1, 1, 0),
     "horizon must be positive and finite"),
    ("fokker_planck.FPGridSpec.dt_step", lambda v: FPGridSpec(-1.0, 1.0, 11, v),
     "dt_step must be positive and finite"),
    ("fokker_planck.default_grid.t", lambda v: default_grid(MARKET, v),
     "t must be positive and finite"),
    ("fokker_planck.analytic_density.t", lambda v: analytic_density(MARKET, v, POINTS),
     "t must be positive and finite"),
    ("fokker_planck.evolve_density.t",
     lambda v: evolve_density(point_mass_density(POINTS, 0.0), MARKET, v, SPEC),
     "t must be positive and finite"),
    ("grids.gaussian_density.variance", lambda v: gaussian_density(POINTS, 0.0, v),
     "variance must be positive and finite"),
    ("market.MarketParams.u0", lambda v: MarketParams(v, 0.05, 0.02, 0.2),
     "u0 must be positive and finite"),
    ("market.MarketParams.sigma", lambda v: MarketParams(1.0, 0.05, 0.02, v),
     "sigma must be positive and finite"),
    ("market.log_coordinate", log_coordinate, "exchange rate must be positive and finite"),
    ("market.OptionSpec.strike", lambda v: OptionSpec("call", v, 1.0),
     "strike must be positive and finite"),
    ("market.OptionSpec.expiry", lambda v: OptionSpec("call", 1.0, v),
     "expiry must be positive and finite"),
    ("maxent.alpha_from_entropic_time.sigma", lambda v: alpha_from_entropic_time(v, 1.0),
     "sigma must be positive and finite"),
    ("maxent.alpha_from_entropic_time.dt", lambda v: alpha_from_entropic_time(0.2, v),
     "dt must be positive and finite"),
    ("maxent.beta_multiplier.sigma", lambda v: beta_multiplier(0.05, 0.02, v),
     "sigma must be positive and finite"),
    ("pricing.quadrature_price.tol", lambda v: quadrature_price(RN, CALL, tol=v),
     "tol must be positive and finite"),
]

# Sites that take a count: (id, entry point, lowest allowed value, message).
AT_LEAST = [
    ("cli.fokker_planck.n_time_steps_given_grid",
     _cli("fokker-planck", *GRID, "--n-time-steps"), 1, "n_time_steps must be at least 1"),
    ("cli.price.n_time_steps_given_grid", _cli(*PDE, *GRID, "--n-time-steps"), 1,
     "n_time_steps must be at least 1"),
    ("dynamics.simulate_paths.n_steps", lambda v: simulate_paths(MARKET, 1.0, v, 1, 0), 1,
     "n_steps must be at least 1"),
    ("dynamics.simulate_paths.n_paths", lambda v: simulate_paths(MARKET, 1.0, 1, v, 0), 1,
     "n_paths must be at least 1"),
    ("dynamics.simulate_paths.n_partitions",
     lambda v: simulate_paths(MARKET, 1.0, 1, 1, 0, n_partitions=v), 1,
     "n_partitions must be at least 1"),
    ("fokker_planck.FPGridSpec.from_steps.n_time_steps",
     lambda v: FPGridSpec.from_steps(-1.0, 1.0, 11, 1.0, v), 1,
     "n_time_steps must be at least 1"),
    ("fokker_planck.default_grid.n_time_steps",
     lambda v: default_grid(MARKET, 1.0, n_time_steps=v), 1,
     "n_time_steps must be at least 1"),
    ("maxent.solve_maxent.max_iter",
     lambda v: solve_maxent(POINTS, PRIOR, maxent.ConstraintSpec((), ()), max_iter=v), 1,
     "max_iter must be at least 1"),
    ("pricing.mc_price.n_paths", lambda v: mc_price(RN, CALL, v, 0), 2,
     "n_paths must be at least 2"),
    ("pricing.mc_price.n_partitions", lambda v: mc_price(RN, CALL, 4, 0, n_partitions=v), 1,
     "n_partitions must be at least 1"),
    ("pricing.default_pde_grid.n_time_steps",
     lambda v: default_pde_grid(RN, CALL, n_time_steps=v), 1,
     "n_time_steps must be at least 1"),
]

CASES = [
    pytest.param(entry, value, message, id=f"{name}-{value!r}")
    for name, entry, message in POSITIVE
    for value in (0.0, -1.0, math.nan, math.inf)
] + [
    pytest.param(entry, value, message, id=f"{name}-{value!r}")
    for name, entry, low, message in AT_LEAST
    for value in sorted({low - 1, -1})
]


def domain_message(entry, value, capsys) -> str:
    """The DomainError message that entry gives for value."""
    try:
        argv = entry(value)
    except DomainError as exc:
        return str(exc)
    assert isinstance(argv, list), f"{value!r} was accepted"
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    record = json.loads(err)
    assert record["error"] == "DomainError"
    return record["message"]


@pytest.mark.parametrize("entry, value, message", CASES)
def test_domain_message(entry, value, message, capsys):
    assert domain_message(entry, value, capsys) == message


# A path set with no times or no paths is a DomainError, not an IndexError.
@pytest.mark.parametrize("times, log_paths, message", [
    pytest.param(np.array([]), np.zeros((3, 0)),
                 "times must start at 0 and increase strictly", id="no_times"),
    pytest.param(np.array([0.0, 1.0]), np.zeros((0, 2)),
                 "log_paths must hold at least one path", id="no_paths"),
])
def test_empty_path_set(times, log_paths, message):
    with pytest.raises(DomainError) as info:
        PathSet(times, log_paths)
    assert str(info.value) == message
