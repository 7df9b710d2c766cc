"""Command-line interface.

Subcommands: price, parity, simulate, fokker-planck, maxent-check.
Settings resolve in precedence order: command-line flags, then a JSON
config file given with --config, then documented defaults.  Each setting
is declared once, in the _SCHEMAS table: it builds every subcommand's
flags and checks the config file's keys, types and choices.  Configuration
and domain errors exit with code 2, numerical failures with code 3.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from collections.abc import Iterable
from typing import Any, Optional

from .errors import DomainError, NumericalError, require_positive
from .market import (
    _METHODS, CALL, PUT, MarketParams, OptionSpec, closed_form_price, parity_residual,
)

# Agreement thresholds for `price --method all`: quadrature against the
# closed form, Monte Carlo within four standard errors, PDE to 1e-3
# relative on a premium floored at 1% of spot.
_ALL_QUAD_TOL = 1e-8
_ALL_MC_SIGMAS = 4.0
_ALL_PDE_RELTOL = 1e-3


class ConfigError(Exception):
    """Bad or missing configuration; maps to exit code 2."""


_REQUIRED = object()


def _market(u0=_REQUIRED, rd=_REQUIRED, rf=_REQUIRED, sigma=_REQUIRED):
    """Spot, drifts and volatility, with one subcommand's defaults."""
    return {
        "u0": (float, u0, "spot exchange rate"),
        "rd": (float, rd, "domestic rate or drift"),
        "rf": (float, rf, "foreign rate or drift"),
        "sigma": (float, sigma, "volatility"),
    }


_OPTION = {"strike": (float, _REQUIRED, None), "expiry": (float, _REQUIRED, None)}

# Every setting of every subcommand, declared once: name -> (type, default,
# choices or help).  A tuple is the value's allowed choices, a string its
# help text.  _REQUIRED means the key must come from a flag or the config
# file.  build_parser makes one flag per entry, in this order, and
# resolve_settings checks config-file values against the same types and
# choices.
_SCHEMAS: dict[str, dict[str, tuple[type, Any, Any]]] = {
    "price": {
        **_market(),
        **_OPTION,
        "kind": (str, _REQUIRED, (CALL, PUT)),
        "method": (str, "closed_form", (*_METHODS, "all")),
        "n_paths": (int, 100_000, None),
        "seed": (int, 0, None),
        "antithetic": (bool, True, None),
        "tol": (float, 1e-10, "quadrature tolerance, relative to max(1, u0, strike)"),
        "n_points": (int, 1601, None),
        "x_min": (float, None, "PDE grid override: lowest log rate at expiry"),
        "x_max": (float, None, "PDE grid override: highest log rate at expiry"),
        "threads": (int, 1, None),
    },
    "parity": {
        **_market(),
        **_OPTION,
        "sweep": (int, 0, "number of random parity cases"),
        "sweep_seed": (int, 0, None),
    },
    "simulate": {
        **_market(),
        "horizon": (float, _REQUIRED, None),
        "n_steps": (int, 100, None),
        "n_paths": (int, 1000, None),
        "seed": (int, 0, None),
        "threads": (int, 1, None),
        "output": (str, None, "write CSV here instead of stdout"),
    },
    "fokker-planck": {
        **_market(u0=1.0, rd=0.05, rf=0.02, sigma=0.2),
        "t": (float, 1.0, "evolution horizon"),
        "n_points": (int, 2001, None),
        "x_min": (float, None, "grid override"),
        "x_max": (float, None, "grid override"),
        "output": (str, None, "write CSV here instead of stdout"),
    },
    "maxent-check": {
        "k": (float, 0.04, "prior variance"),
        "k_prime": (float, 0.01, "target variance"),
        "spacing": (float, 1e-3, "grid spacing"),
        "extent_sigmas": (float, 10.0, None),
        "tol": (float, 1e-12, None),
        "max_iter": (int, 100, None),
        "bound": (float, 1e-6, "allowed variance mismatch"),
    },
}

_COMMAND_HELP = {
    "price": "price a European FX option",
    "parity": "put-call parity residual of the closed form",
    "simulate": "simulate GBM log-rate paths, CSV output",
    "fokker-planck": "evolve the log-rate density, CSV output",
    "maxent-check": "variance-tilt round trip for the dual solver",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entropic-fx",
        description="Maximum-entropy FX dynamics and option pricing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, schema in _SCHEMAS.items():
        p = sub.add_parser(command, help=_COMMAND_HELP[command])
        # Read -5e-05 and -inf as values, not flags: Python 3.11's argparse
        # takes only -5 and -0.5 forms for negative numbers.
        p._negative_number_matcher = re.compile(r"-\.?\d|-inf|-nan", re.I)
        p.add_argument("--config", help="JSON file with default settings")
        for name, (typ, default, extra) in schema.items():
            flag = name.replace("_", "-")
            kwargs = {"choices": extra} if isinstance(extra, tuple) else {"help": extra}
            if typ is bool:
                # A switch flips the default: --no-<name> or --<name>.
                flag = f"no-{flag}" if default else flag
                kwargs.update(action="store_const", const=not default)
            else:
                kwargs["type"] = typ
            p.add_argument(f"--{flag}", dest=name, **kwargs)
    return parser


def _load_config_file(path: str, schema: dict) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    for key in data:
        if key not in schema:
            raise ConfigError(f"unknown config key: {key}")
    return data


def resolve_settings(args: argparse.Namespace) -> dict:
    """Merge flags over config-file values over schema defaults."""
    schema = _SCHEMAS[args.command]
    file_cfg = _load_config_file(args.config, schema) if args.config else {}
    settings: dict[str, Any] = {}
    for key, (typ, default, extra) in schema.items():
        value = getattr(args, key, None)
        if value is None and key in file_cfg:
            raw = file_cfg[key]
            if typ is bool:
                if not isinstance(raw, bool):
                    raise ConfigError(f"config key {key} must be a boolean")
                value = raw
            elif typ in (int, float):
                if isinstance(raw, bool) or not isinstance(raw, (int, float)):
                    raise ConfigError(f"config key {key} must be a number")
                if typ is int and not (isinstance(raw, int) or raw.is_integer()):
                    raise ConfigError(f"config key {key} must be an integer")
                try:
                    value = typ(raw)
                except OverflowError:
                    raise ConfigError(f"config key {key} must be a finite number") from None
            else:
                if not isinstance(raw, str):
                    raise ConfigError(f"config key {key} must be a string")
                value = raw
            if isinstance(extra, tuple) and value not in extra:
                raise ConfigError(f"config key {key} must be one of {extra}")
        if value is None:
            if default is _REQUIRED:
                raise ConfigError(f"missing required key: {key}")
            value = default
        settings[key] = value
    return settings


def _threads(settings: dict) -> int:
    if settings["threads"] < 1:
        raise ConfigError("threads must be at least 1")
    return settings["threads"]


def _rates(settings: dict) -> tuple[float, float, float, float]:
    """(u0, rd, rf, sigma): MarketParams' and MarketParams.risk_neutral's order."""
    return settings["u0"], settings["rd"], settings["rf"], settings["sigma"]


def _emit(chunks: Iterable[str], output: Optional[str]) -> None:
    """Write each chunk as soon as it is made, so the whole text is never held."""
    if output is None:
        sys.stdout.writelines(chunks)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def _write_json(stream, payload: dict) -> None:
    """Write payload as one line of strict JSON, which has no inf or nan."""
    try:
        stream.write(json.dumps(payload, allow_nan=False) + "\n")
    except ValueError:
        raise NumericalError(f"non-finite value in {json.dumps(payload)}") from None


def _grid(settings: dict, default):
    """The FPGridSpec that x_min/x_max give, else default(n_points)."""
    x_min, x_max = settings["x_min"], settings["x_max"]
    if (x_min is None) != (x_max is None):
        raise ConfigError("x_min and x_max must be given together")
    if x_min is None:
        return default(settings["n_points"])
    from .fokker_planck import FPGridSpec
    return FPGridSpec(x_min, x_max, settings["n_points"])


def _price_one(method: str, settings: dict, market: MarketParams, opt: OptionSpec):
    if method == "closed_form":
        return closed_form_price(market, opt)
    from . import pricing
    if method == "quadrature":
        return pricing.quadrature_price(market, opt, tol=settings["tol"])
    if method == "monte_carlo":
        return pricing.mc_price(
            market,
            opt,
            n_paths=settings["n_paths"],
            seed=settings["seed"],
            antithetic=settings["antithetic"],
            n_partitions=_threads(settings),
        )
    default = functools.partial(pricing.default_pde_grid, market, opt)
    return pricing.pde_price(market, opt, _grid(settings, default))


def cmd_price(settings: dict) -> None:
    market = MarketParams.risk_neutral(*_rates(settings))
    opt = OptionSpec(settings["kind"], settings["strike"], settings["expiry"])
    if settings["method"] != "all":
        result = _price_one(settings["method"], settings, market, opt)
        _write_json(sys.stdout, result.to_json_dict())
        return

    results = [_price_one(m, settings, market, opt) for m in _METHODS]
    reference = results[0].premium
    mc = results[2]
    ok_quad = abs(results[1].premium - reference) <= _ALL_QUAD_TOL * max(1.0, reference)
    mc_band = _ALL_MC_SIGMAS * (mc.std_error or 0.0)
    ok_mc = abs(mc.premium - reference) <= max(mc_band, 1e-12)
    pde_scale = max(reference, 0.01 * market.u0)
    ok_pde = abs(results[3].premium - reference) <= _ALL_PDE_RELTOL * pde_scale
    _write_json(sys.stdout, {
        "results": [r.to_json_dict() for r in results],
        "pairwise_consistent": bool(ok_quad and ok_mc and ok_pde),
    })


def cmd_parity(settings: dict) -> None:
    market = MarketParams.risk_neutral(*_rates(settings))
    if settings["sweep"] < 0:
        raise DomainError("sweep must be a non-negative number of cases")
    if settings["sweep"] > 0:
        if settings["sweep_seed"] < 0:
            raise DomainError("sweep_seed must be a non-negative integer")
        import random
        rng = random.Random(settings["sweep_seed"])
        n_cases = settings["sweep"]
        worst = 0.0
        violations = 0
        for _ in range(n_cases):
            strike = market.u0 * math.exp(rng.uniform(-0.7, 0.7))
            residual = abs(parity_residual(market, strike, rng.uniform(0.1, 5.0)))
            worst = max(worst, residual)
            if residual > 1e-12 * max(market.u0, strike):
                violations += 1
        if violations:
            raise NumericalError(
                f"{violations} of {n_cases} parity cases exceed the bound"
            )
        _write_json(sys.stdout, {"max_abs_residual": worst, "n_cases": n_cases})
        return
    residual = parity_residual(market, settings["strike"], settings["expiry"])
    bound = 1e-12 * max(market.u0, settings["strike"])
    if abs(residual) > bound:
        raise NumericalError(
            f"parity residual {residual!r} exceeds bound {bound!r}"
        )
    _write_json(sys.stdout, {"residual": residual, "bound": bound})


def cmd_simulate(settings: dict) -> None:
    from .dynamics import paths_csv_chunks, simulate_paths
    market = MarketParams(*_rates(settings))
    paths = simulate_paths(
        market,
        horizon=settings["horizon"],
        n_steps=settings["n_steps"],
        n_paths=settings["n_paths"],
        seed=settings["seed"],
        n_partitions=_threads(settings),
    )
    _emit(paths_csv_chunks(paths), settings["output"])


def cmd_fokker_planck(settings: dict) -> None:
    from . import fokker_planck as fp
    from .grids import density_csv_chunks, l1_distance
    market = MarketParams(*_rates(settings))
    t = settings["t"]
    require_positive("t", t)
    spec = _grid(settings, functools.partial(fp.default_grid, market, t))
    initial = fp.point_mass_density(spec.points(), math.log(market.u0))
    evolved = fp.evolve_density(initial, market, t, spec)
    exact = fp.analytic_density(market, t, spec.points())
    diagnostic = {
        "l1_distance_to_analytic": l1_distance(evolved, exact),
        "mass": evolved.mass(),
        "n_points": spec.n_points,
        "t": t,
    }
    _write_json(sys.stderr, diagnostic)
    _emit(density_csv_chunks(evolved), settings["output"])


def cmd_maxent_check(settings: dict) -> None:
    import numpy as np
    from . import maxent
    from .grids import MAX_GRID_POINTS, gaussian_density
    k, k_prime = settings["k"], settings["k_prime"]
    require_positive("k", k)
    spacing = settings["spacing"]
    require_positive("spacing", spacing)
    extent_sigmas = settings["extent_sigmas"]
    require_positive("extent_sigmas", extent_sigmas)
    half = extent_sigmas * math.sqrt(k)
    intervals = 2.0 * half / spacing  # inf where it overflows
    if not intervals + 1.0 <= MAX_GRID_POINTS:
        raise DomainError(
            f"grid of {intervals + 1.0:.3g} points exceeds {MAX_GRID_POINTS}: "
            "raise spacing or lower k or extent_sigmas"
        )
    n = max(3, int(round(intervals)) + 1)
    points = np.linspace(-half, half, n)
    prior = gaussian_density(points, 0.0, k)
    require_positive("k_prime", k_prime)
    require_positive("bound", settings["bound"])
    constraints = maxent.ConstraintSpec(
        (maxent.SecondCentralMoment(center=0.0),), (k_prime,)
    )
    solution = maxent.solve_maxent(
        points, prior, constraints,
        tol=settings["tol"], max_iter=settings["max_iter"],
    )
    # The exact answer is the variance-k_prime Gaussian; compare pointwise.
    closed_form = np.exp(-points**2 / (2.0 * k_prime)) / math.sqrt(
        2.0 * math.pi * k_prime
    )
    max_pointwise = float(np.max(np.abs(solution.density.weights - closed_form)))
    if max_pointwise > settings["bound"]:
        raise NumericalError(
            f"max pointwise error {max_pointwise!r} exceeds bound "
            f"{settings['bound']!r}"
        )
    expected = -0.5 * (1.0 / k_prime - 1.0 / k)
    _write_json(sys.stdout, {
        "k": k,
        "k_prime": k_prime,
        "multiplier": float(solution.multipliers[0]),
        "expected_multiplier": expected,
        "recovered_variance": solution.density.variance(),
        "max_pointwise_error": max_pointwise,
        "iterations": solution.iterations,
        "residual_norm": solution.residual_norm,
    })


_COMMANDS = {
    "price": cmd_price,
    "parity": cmd_parity,
    "simulate": cmd_simulate,
    "fokker-planck": cmd_fokker_planck,
    "maxent-check": cmd_maxent_check,
}


def _fail(exc: Exception, code: int) -> int:
    _write_json(sys.stderr, {"error": type(exc).__name__, "message": str(exc)})
    return code


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = resolve_settings(args)
        _COMMANDS[args.command](settings)
    except (ConfigError, DomainError) as exc:
        return _fail(exc, 2)
    except NumericalError as exc:
        return _fail(exc, 3)
    except BrokenPipeError:
        # Reader went away (e.g. piped into head); not an error.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
