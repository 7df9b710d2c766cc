"""Command-line interface.

Subcommands: price, parity, simulate, fokker-planck, maxent-check.
Settings resolve in precedence order: command-line flags, then a JSON
config file given with --config, then documented defaults.  Configuration
and domain errors exit with code 2, numerical failures with code 3.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Any, Optional

import numpy as np

from . import fokker_planck as fp
from . import maxent, pricing
from .dynamics import (
    PHYSICAL,
    RISK_NEUTRAL,
    MarketParams,
    paths_to_csv,
    simulate_paths,
)
from .errors import DomainError, NumericalError
from .grids import density_to_csv, gaussian_density, l1_distance

_ENV_THREADS = "ENTROPIC_FX_THREADS"

# Agreement thresholds for `price --method all`: quadrature against the
# closed form, Monte Carlo within four standard errors, PDE to 1e-3
# relative on a premium floored at 1% of spot.
_ALL_QUAD_TOL = 1e-8
_ALL_MC_SIGMAS = 4.0
_ALL_PDE_RELTOL = 1e-3


class ConfigError(Exception):
    """Bad or missing configuration; maps to exit code 2."""


_REQUIRED = object()

# Per-subcommand setting names, types, and defaults.  _REQUIRED means the
# key must come from a flag or the config file.
_SCHEMAS: dict[str, dict[str, tuple[type, Any]]] = {
    "price": {
        "u0": (float, _REQUIRED),
        "strike": (float, _REQUIRED),
        "rd": (float, _REQUIRED),
        "rf": (float, _REQUIRED),
        "sigma": (float, _REQUIRED),
        "expiry": (float, _REQUIRED),
        "kind": (str, _REQUIRED),
        "method": (str, "closed_form"),
        "measure": (str, RISK_NEUTRAL),
        "n_paths": (int, 100_000),
        "seed": (int, 0),
        "antithetic": (bool, True),
        "mc_steps": (int, 1),
        "tol": (float, 1e-10),
        "n_points": (int, 1601),
        "n_time_steps": (int, 400),
        "x_min": (float, None),
        "x_max": (float, None),
        "threads": (int, None),
    },
    "parity": {
        "u0": (float, _REQUIRED),
        "strike": (float, _REQUIRED),
        "rd": (float, _REQUIRED),
        "rf": (float, _REQUIRED),
        "sigma": (float, _REQUIRED),
        "expiry": (float, _REQUIRED),
        "measure": (str, RISK_NEUTRAL),
        "sweep": (int, 0),
        "sweep_seed": (int, 0),
    },
    "simulate": {
        "u0": (float, _REQUIRED),
        "rd": (float, _REQUIRED),
        "rf": (float, _REQUIRED),
        "sigma": (float, _REQUIRED),
        "horizon": (float, _REQUIRED),
        "measure": (str, PHYSICAL),
        "n_steps": (int, 100),
        "n_paths": (int, 1000),
        "seed": (int, 0),
        "threads": (int, None),
        "output": (str, None),
    },
    "fokker-planck": {
        "u0": (float, 1.0),
        "rd": (float, 0.05),
        "rf": (float, 0.02),
        "sigma": (float, 0.2),
        "t": (float, 1.0),
        "measure": (str, PHYSICAL),
        "n_points": (int, 2001),
        "n_time_steps": (int, 1000),
        "x_min": (float, None),
        "x_max": (float, None),
        "output": (str, None),
    },
    "maxent-check": {
        "k": (float, 0.04),
        "k_prime": (float, 0.01),
        "spacing": (float, 1e-3),
        "extent_sigmas": (float, 10.0),
        "tol": (float, 1e-12),
        "max_iter": (int, 100),
        "bound": (float, 1e-6),
        "empty_constraints": (bool, False),
    },
}


def _add_market_flags(p: argparse.ArgumentParser, with_option: bool) -> None:
    p.add_argument("--u0", type=float, help="spot exchange rate")
    p.add_argument("--rd", type=float, help="domestic rate or drift")
    p.add_argument("--rf", type=float, help="foreign rate or drift")
    p.add_argument("--sigma", type=float, help="volatility")
    p.add_argument("--measure", choices=[PHYSICAL, RISK_NEUTRAL])
    if with_option:
        p.add_argument("--strike", type=float)
        p.add_argument("--expiry", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entropic-fx",
        description="Maximum-entropy FX dynamics and option pricing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file with default settings")
        return p

    p = add("price", "price a European FX option")
    _add_market_flags(p, with_option=True)
    p.add_argument("--kind", choices=[pricing.CALL, pricing.PUT])
    p.add_argument(
        "--method",
        choices=["closed_form", "quadrature", "monte_carlo", "pde", "all"],
    )
    p.add_argument("--n-paths", type=int, dest="n_paths")
    p.add_argument("--seed", type=int)
    p.add_argument(
        "--no-antithetic", action="store_const", const=False, dest="antithetic"
    )
    p.add_argument("--mc-steps", type=int, dest="mc_steps")
    p.add_argument(
        "--tol", type=float, help="quadrature tolerance, relative to max(1, u0, strike)"
    )
    p.add_argument("--n-points", type=int, dest="n_points")
    p.add_argument("--n-time-steps", type=int, dest="n_time_steps")
    p.add_argument("--x-min", type=float, dest="x_min", help="PDE grid override")
    p.add_argument("--x-max", type=float, dest="x_max", help="PDE grid override")
    p.add_argument("--threads", type=int)

    p = add("parity", "put-call parity residual of the closed form")
    _add_market_flags(p, with_option=True)
    p.add_argument("--sweep", type=int, help="number of random parity cases")
    p.add_argument("--sweep-seed", type=int, dest="sweep_seed")

    p = add("simulate", "simulate GBM log-rate paths, CSV output")
    _add_market_flags(p, with_option=False)
    p.add_argument("--horizon", type=float)
    p.add_argument("--n-steps", type=int, dest="n_steps")
    p.add_argument("--n-paths", type=int, dest="n_paths")
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int)
    p.add_argument("--output", help="write CSV here instead of stdout")

    p = add("fokker-planck", "evolve the log-rate density, CSV output")
    _add_market_flags(p, with_option=False)
    p.add_argument("--t", type=float, help="evolution horizon")
    p.add_argument("--n-points", type=int, dest="n_points")
    p.add_argument("--n-time-steps", type=int, dest="n_time_steps")
    p.add_argument("--x-min", type=float, dest="x_min", help="grid override")
    p.add_argument("--x-max", type=float, dest="x_max", help="grid override")
    p.add_argument("--output", help="write CSV here instead of stdout")

    p = add("maxent-check", "variance-tilt round trip for the dual solver")
    p.add_argument("--k", type=float, help="prior variance")
    p.add_argument("--k-prime", type=float, dest="k_prime", help="target variance")
    p.add_argument("--spacing", type=float, help="grid spacing")
    p.add_argument("--extent-sigmas", type=float, dest="extent_sigmas")
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iter", type=int, dest="max_iter")
    p.add_argument("--bound", type=float, help="allowed variance mismatch")
    p.add_argument(
        "--empty-constraints",
        action="store_const",
        const=True,
        dest="empty_constraints",
        help="check that no constraints returns the prior unchanged",
    )
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
    for key, (typ, default) in schema.items():
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
                if typ is int and raw != int(raw):
                    raise ConfigError(f"config key {key} must be an integer")
                value = typ(raw)
            else:
                if not isinstance(raw, str):
                    raise ConfigError(f"config key {key} must be a string")
                value = raw
        if value is None:
            if default is _REQUIRED:
                raise ConfigError(f"missing required key: {key}")
            value = default
        settings[key] = value
    return settings


def _resolve_threads(settings: dict) -> int:
    threads = settings.get("threads")
    if threads is None:
        raw = os.environ.get(_ENV_THREADS)
        if raw is not None:
            try:
                threads = int(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"{_ENV_THREADS} must be an integer, got {raw!r}"
                ) from exc
    if threads is None:
        threads = 1
    if threads < 1:
        raise ConfigError("threads must be at least 1")
    return threads


def _market_from(settings: dict) -> MarketParams:
    return MarketParams(
        u0=settings["u0"],
        drift_d=settings["rd"],
        drift_f=settings["rf"],
        sigma=settings["sigma"],
        measure_tag=settings["measure"],
    )


def _emit(text: str, output: Optional[str]) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _print_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")


def _pde_grid_from(settings: dict, opt) -> Optional[fp.FPGridSpec]:
    x_min, x_max = settings.get("x_min"), settings.get("x_max")
    if (x_min is None) != (x_max is None):
        raise ConfigError("x_min and x_max must be given together")
    if x_min is None:
        return None
    return fp.FPGridSpec(
        x_min=x_min,
        x_max=x_max,
        n_points=settings["n_points"],
        dt_step=opt.expiry / settings["n_time_steps"],
    )


def _price_one(method: str, settings: dict, market: MarketParams, opt) -> pricing.PriceResult:
    if method == "closed_form":
        return pricing.closed_form_price(market, opt)
    if method == "quadrature":
        return pricing.quadrature_price(market, opt, tol=settings["tol"])
    if method == "monte_carlo":
        return pricing.mc_price(
            market,
            opt,
            n_paths=settings["n_paths"],
            seed=settings["seed"],
            antithetic=settings["antithetic"],
            n_steps=settings["mc_steps"],
            n_partitions=_resolve_threads(settings),
        )
    grid = _pde_grid_from(settings, opt)
    if grid is None:
        grid = pricing.default_pde_grid(
            market, opt, settings["n_points"], settings["n_time_steps"]
        )
    return pricing.pde_price(market, opt, grid)


def cmd_price(settings: dict) -> None:
    market = _market_from(settings)
    opt = pricing.OptionSpec(settings["kind"], settings["strike"], settings["expiry"])
    if settings["method"] != "all":
        result = _price_one(settings["method"], settings, market, opt)
        _print_json(result.to_json_dict())
        return

    results = [
        _price_one(m, settings, market, opt)
        for m in ("closed_form", "quadrature", "monte_carlo", "pde")
    ]
    reference = results[0].premium
    mc = results[2]
    ok_quad = abs(results[1].premium - reference) <= _ALL_QUAD_TOL * max(1.0, reference)
    mc_band = _ALL_MC_SIGMAS * (mc.std_error or 0.0)
    ok_mc = abs(mc.premium - reference) <= max(mc_band, 1e-12)
    pde_scale = max(reference, 0.01 * market.u0)
    ok_pde = abs(results[3].premium - reference) <= _ALL_PDE_RELTOL * pde_scale
    _print_json(
        {
            "results": [r.to_json_dict() for r in results],
            "pairwise_consistent": bool(ok_quad and ok_mc and ok_pde),
        }
    )


def cmd_parity(settings: dict) -> None:
    market = _market_from(settings)
    if settings["sweep"] > 0:
        rng = np.random.default_rng(settings["sweep_seed"])
        worst = 0.0
        violations = 0
        for _ in range(settings["sweep"]):
            strike = market.u0 * math.exp(rng.uniform(-0.7, 0.7))
            expiry = rng.uniform(0.1, 5.0)
            residual = abs(pricing.parity_residual(market, strike, expiry))
            worst = max(worst, residual)
            if residual > 1e-12 * max(market.u0, strike):
                violations += 1
        if violations:
            raise NumericalError(
                f"{violations} of {settings['sweep']} parity cases exceed the bound"
            )
        _print_json({"max_abs_residual": worst, "n_cases": settings["sweep"]})
        return
    residual = pricing.parity_residual(market, settings["strike"], settings["expiry"])
    bound = 1e-12 * max(market.u0, settings["strike"])
    if abs(residual) > bound:
        raise NumericalError(
            f"parity residual {residual!r} exceeds bound {bound!r}"
        )
    _print_json({"residual": residual, "bound": bound})


def cmd_simulate(settings: dict) -> None:
    market = _market_from(settings)
    paths = simulate_paths(
        market,
        horizon=settings["horizon"],
        n_steps=settings["n_steps"],
        n_paths=settings["n_paths"],
        seed=settings["seed"],
        n_partitions=_resolve_threads(settings),
    )
    _emit(paths_to_csv(paths), settings["output"])


def cmd_fokker_planck(settings: dict) -> None:
    market = _market_from(settings)
    t = settings["t"]
    if t is not None and not t > 0.0:
        raise DomainError("t must be positive")
    x_min, x_max = settings["x_min"], settings["x_max"]
    if (x_min is None) != (x_max is None):
        raise ConfigError("x_min and x_max must be given together")
    if x_min is None:
        spec = fp.default_grid(market, t, settings["n_points"], settings["n_time_steps"])
    else:
        spec = fp.FPGridSpec(
            x_min=x_min,
            x_max=x_max,
            n_points=settings["n_points"],
            dt_step=t / settings["n_time_steps"],
        )
    points = spec.points()
    initial = fp.point_mass_density(points, math.log(market.u0))
    evolved = fp.evolve_density(initial, market, t, spec)
    exact = fp.analytic_density(market, t, points)
    diagnostic = {
        "l1_distance_to_analytic": l1_distance(evolved, exact),
        "mass": evolved.mass(),
        "n_points": spec.n_points,
        "t": t,
    }
    sys.stderr.write(json.dumps(diagnostic) + "\n")
    _emit(density_to_csv(evolved), settings["output"])


def cmd_maxent_check(settings: dict) -> None:
    k, k_prime = settings["k"], settings["k_prime"]
    if not (k > 0.0 and math.isfinite(k)):
        raise DomainError("k must be positive and finite")
    spacing = settings["spacing"]
    if not (spacing > 0.0 and math.isfinite(spacing)):
        raise DomainError("spacing must be positive and finite")
    half = settings["extent_sigmas"] * math.sqrt(k)
    n = max(3, int(round(2.0 * half / spacing)) + 1)
    points = np.linspace(-half, half, n)
    prior = gaussian_density(points, 0.0, k)

    if settings["empty_constraints"]:
        solution = maxent.solve_maxent(
            prior.points, prior, maxent.ConstraintSpec((), ()),
            tol=settings["tol"], max_iter=settings["max_iter"],
        )
        unchanged = bool(np.array_equal(solution.density.weights, prior.weights))
        _print_json({"unchanged": unchanged, "iterations": solution.iterations})
        return

    if not (k_prime > 0.0 and math.isfinite(k_prime)):
        raise DomainError("k_prime must be positive and finite")
    constraints = maxent.ConstraintSpec(
        (maxent.SecondCentralMoment(center=0.0),), (k_prime,)
    )
    solution = maxent.solve_maxent(
        prior.points, prior, constraints,
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
    _print_json(
        {
            "k": k,
            "k_prime": k_prime,
            "multiplier": float(solution.multipliers[0]),
            "expected_multiplier": expected,
            "recovered_variance": solution.density.variance(),
            "max_pointwise_error": max_pointwise,
            "iterations": solution.iterations,
            "residual_norm": solution.residual_norm,
        }
    )


_COMMANDS = {
    "price": cmd_price,
    "parity": cmd_parity,
    "simulate": cmd_simulate,
    "fokker-planck": cmd_fokker_planck,
    "maxent-check": cmd_maxent_check,
}


def _fail(exc: Exception, code: int) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    sys.stderr.write(json.dumps(payload) + "\n")
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
