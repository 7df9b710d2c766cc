import json
import math
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from entropic_fx import (
    MarketParams,
    OptionSpec,
    PathSet,
    closed_form_price,
    density_to_csv,
    paths_to_csv,
)
from entropic_fx import cli, dynamics, grids, pricing
from entropic_fx.cli import build_parser, resolve_settings
from entropic_fx.market import _d1_d2

from conftest import read_density_csv

STD_FLAGS = [
    "--u0", "1.0",
    "--strike", "1.0",
    "--rd", "0.05",
    "--rf", "0.02",
    "--sigma", "0.2",
    "--expiry", "1.0",
    "--kind", "call",
]
STD_CALL = 0.09227005508154048


def run_cli(*args, env_extra=None, check=False):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "entropic_fx", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=240,
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"CLI failed ({proc.returncode}): {proc.stderr.strip()}"
        )
    return proc


class TestPriceCommand:
    def test_closed_form_premium(self):
        proc = run_cli("price", *STD_FLAGS, check=True)
        data = json.loads(proc.stdout)
        assert abs(data["premium"] - STD_CALL) < 1e-12
        assert data["method"] == "closed_form"
        assert data["std_error"] is None
        assert data["d1"] == pytest.approx(0.25, abs=1e-15)
        assert data["d2"] == pytest.approx(0.05, abs=1e-15)

    def test_output_parses_back_into_price_result(self):
        proc = run_cli("price", *STD_FLAGS, check=True)
        data = json.loads(proc.stdout)
        assert abs(data["premium"] - STD_CALL) < 1e-12
        # repr-style floats survive the trip without losing a bit.
        market = MarketParams.risk_neutral(1.0, 0.05, 0.02, 0.2)
        option = OptionSpec("call", 1.0, 1.0)
        assert data == closed_form_price(market, option).to_json_dict()

    def test_quadrature_method(self):
        proc = run_cli("price", *STD_FLAGS, "--method", "quadrature", check=True)
        data = json.loads(proc.stdout)
        assert abs(data["premium"] - STD_CALL) < 1e-10
        assert data["d1"] is None and data["d2"] is None

    def test_monte_carlo_deterministic_for_fixed_seed(self):
        args = (
            "price", *STD_FLAGS,
            "--method", "monte_carlo",
            "--n-paths", "20000",
            "--seed", "11",
        )
        a = run_cli(*args, check=True)
        b = run_cli(*args, check=True)
        assert a.stdout == b.stdout
        data = json.loads(a.stdout)
        assert abs(data["premium"] - STD_CALL) < 6.0 * data["std_error"]

    def test_monte_carlo_seed_changes_output(self):
        base = (
            "price", *STD_FLAGS,
            "--method", "monte_carlo",
            "--n-paths", "2000",
        )
        a = run_cli(*base, "--seed", "0", check=True)
        b = run_cli(*base, "--seed", "1", check=True)
        assert a.stdout != b.stdout

    def test_threads_flag_matches_serial(self):
        args = (
            "price", *STD_FLAGS,
            "--method", "monte_carlo",
            "--n-paths", "200000",
            "--seed", "4",
        )
        by_flag = run_cli(*args, "--threads", "3", check=True)
        serial = run_cli(*args, "--threads", "1", check=True)
        # 10^5 antithetic pairs are two blocks of draws; the thread count
        # decides which thread draws a block, not what it draws.
        assert serial.stdout == by_flag.stdout

    def test_method_all_does_not_depend_on_threads(self):
        args = (
            "price", *STD_FLAGS,
            "--method", "all",
            "--n-paths", "200000",
            "--seed", "12",
        )
        outputs = {run_cli(*args, "--threads", n, check=True).stdout for n in ("1", "2", "3")}
        assert len(outputs) == 1

    def test_pde_method(self):
        proc = run_cli("price", *STD_FLAGS, "--method", "pde", check=True)
        data = json.loads(proc.stdout)
        assert abs(data["premium"] - STD_CALL) / STD_CALL < 1e-4

    def test_pde_step_count_costs_nothing(self):
        # A billion time steps are one multiplier per mode, as 400 are.
        default = json.loads(run_cli("price", *STD_FLAGS, "--method", "pde", check=True).stdout)
        many = run_cli(
            "price", *STD_FLAGS, "--method", "pde", "--n-time-steps", "1000000000", check=True
        )
        assert json.loads(many.stdout)["premium"] == pytest.approx(default["premium"], rel=1e-4)

    def test_method_all_consistency(self):
        proc = run_cli(
            "price", *STD_FLAGS,
            "--method", "all",
            "--n-paths", "200000",
            "--seed", "7",
            check=True,
        )
        data = json.loads(proc.stdout)
        assert data["pairwise_consistent"] is True
        methods = [r["method"] for r in data["results"]]
        assert methods == ["closed_form", "quadrature", "monte_carlo", "pde"]

    def test_missing_required_key_exits_2(self):
        proc = run_cli("price", "--u0", "1.0")
        assert proc.returncode == 2
        err = json.loads(proc.stderr)
        assert err["error"] == "ConfigError"
        assert "strike" in err["message"] or "missing" in err["message"]

    def test_domain_error_exits_2(self):
        proc = run_cli(
            "price", *STD_FLAGS[:-4], "--sigma", "-0.2", "--expiry", "1.0",
            "--kind", "call",
        )
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["error"] == "DomainError"

    def test_unreachable_quad_tolerance_exits_3(self):
        proc = run_cli(
            "price", *STD_FLAGS, "--method", "quadrature", "--tol", "1e-18"
        )
        assert proc.returncode == 3
        assert json.loads(proc.stderr)["error"] == "ToleranceNotMet"

    def test_quadrature_tol_is_relative_to_strike(self):
        proc = run_cli(
            "price", "--u0", "1.0", "--strike", "1000.0", "--rd", "0.05",
            "--rf", "0.02", "--sigma", "0.3", "--expiry", "1.0",
            "--kind", "put", "--method", "quadrature",
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["method"] == "quadrature"

    def test_narrow_pde_grid_exits_3(self):
        proc = run_cli(
            "price", *STD_FLAGS,
            "--method", "pde",
            "--x-min", "-0.5",
            "--x-max", "0.5",
        )
        assert proc.returncode == 3
        assert json.loads(proc.stderr)["error"] == "GridTooNarrow"

    @pytest.mark.parametrize("kind", ["call", "put"])
    def test_pde_grid_past_exp_overflow_exits_0(self, kind):
        # sigma = 30 takes the default grid's upper bound near 750, past
        # ln(float max), where the put pays nothing and e^y is never used.
        proc = run_cli(
            "price", "--method", "pde",
            "--u0", "1", "--rd", "0.05", "--rf", "0.02", "--sigma", "30",
            "--strike", "1", "--expiry", "1", "--kind", kind,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        expected = closed_form_price(
            MarketParams.risk_neutral(1.0, 0.05, 0.02, 30.0), OptionSpec(kind, 1.0, 1.0)
        ).premium
        assert json.loads(proc.stdout)["premium"] == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize(
        "sigma, kind, rel",
        [(30.0, "call", 1e-6), (30.0, "put", 1e-6), (0.2, "call", None)],
        ids=["overflowing_call", "put", "low_vol_call"],
    )
    def test_pde_grid_near_exp_overflow(self, sigma, kind, rel):
        # y_max = 709 is just below ln(float max).  The sigma-30 call, whose
        # values overflowed when the solve was in log spot, is replicated
        # from the put; at sigma = 0.2 this grid is far too coarse for an
        # accurate premium, but it still solves without warnings.
        proc = run_cli(
            "price", "--method", "pde",
            "--u0", "1", "--rd", "0.05", "--rf", "0.02", "--sigma", str(sigma),
            "--strike", "1", "--expiry", "1", "--kind", kind,
            "--x-min", "-700", "--x-max", "709",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        premium = json.loads(proc.stdout)["premium"]
        assert math.isfinite(premium)
        if rel is not None:
            expected = closed_form_price(
                MarketParams.risk_neutral(1.0, 0.05, 0.02, sigma), OptionSpec(kind, 1.0, 1.0)
            ).premium
            assert premium == pytest.approx(expected, rel=rel)

    @pytest.mark.parametrize("rd", ["-20", "-50"])
    def test_pde_far_from_the_money_forward_exits_3(self, rd):
        # The log forward ln u0 + (rd - rf) T lands 20 or 50 below ln K: the
        # default grid spans both, and the forward sits in its outer tenth.
        proc = run_cli(
            "price", "--method", "pde",
            "--u0", "1", "--strike", "1", "--rd", rd, "--rf", "0.02",
            "--sigma", "0.2", "--expiry", "1", "--kind", "call",
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert json.loads(line)["error"] == "GridTooNarrow"

    @pytest.mark.parametrize("kind", ["call", "put"])
    def test_pde_negative_rate_within_floored_tolerance(self, kind):
        # rd = -5: the put is 147.4, the call 2.4e-140.  The call replicated
        # from the put keeps the put's absolute error, within 1e-8 relative
        # to max(premium, 1% of spot), the scale --method all judges by.
        proc = run_cli(
            "price", "--method", "pde",
            "--u0", "1", "--strike", "1", "--rd", "-5", "--rf", "0.02",
            "--sigma", "0.2", "--expiry", "1", "--kind", kind,
        )
        assert proc.returncode == 0, proc.stderr
        expected = closed_form_price(
            MarketParams.risk_neutral(1.0, -5.0, 0.02, 0.2), OptionSpec(kind, 1.0, 1.0)
        ).premium
        error = abs(json.loads(proc.stdout)["premium"] - expected)
        assert error <= 1e-8 * max(expected, 0.01)

    @pytest.mark.parametrize("method", ["monte_carlo", "all"])
    def test_single_antithetic_pair_exits_2(self, method):
        # One pair is one sample: its standard error would be NaN.
        proc = run_cli(
            "price", *STD_FLAGS, "--method", method, "--n-paths", "2"
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()  # the JSON error and no warning
        assert json.loads(line)["error"] == "DomainError"

    def test_partial_grid_override_exits_2(self):
        proc = run_cli("price", *STD_FLAGS, "--method", "pde", "--x-min", "-2.0")
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "grid",
        [[], ["--x-min", "-2", "--x-max", "2"]],
        ids=["default_grid", "given_grid"],
    )
    @pytest.mark.parametrize("method", ["pde", "all"])
    def test_zero_time_steps_exits_2(self, method, grid):
        proc = run_cli(
            "price", *STD_FLAGS, "--method", method, "--n-time-steps", "0", *grid
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert json.loads(line)["error"] == "DomainError"

    def test_threads_env_var_is_ignored(self):
        # Settings come from flags, the config file and defaults only.
        args = ("price", *STD_FLAGS, "--method", "monte_carlo", "--n-paths", "200000")
        plain = run_cli(*args, check=True)
        with_env = run_cli(*args, env_extra={"ENTROPIC_FX_THREADS": "many"}, check=True)
        assert with_env.stdout == plain.stdout


class TestNegativeNumbers:
    """Negative numbers in every form the CLI prints are values, not flags.

    argparse's own pattern takes only -5 and -0.5 forms as negative numbers,
    so without the CLI's wider one `--rd -5e-05` and `--rd -inf` exit 2 with
    a usage error.  These pin the behaviour on every Python the CI runs.
    """

    PRICE = [
        "price", "--u0", "1.0", "--rf", "0.02", "--sigma", "0.2",
        "--strike", "1.0", "--expiry", "1.0", "--kind", "call",
    ]

    @pytest.mark.parametrize(
        "token", ["-5e-05", "-5E-05", "-5e5", "-5.e-5", "-.5e-4", "-1e+0", "-0.00005", "-3"]
    )
    def test_parses_as_a_value(self, token):
        args = build_parser().parse_args([*self.PRICE, "--rd", token])
        assert args.rd == float(token)

    @pytest.mark.parametrize("token", ["-inf", "-Infinity", "-nan"])
    def test_non_finite_parses_as_a_value(self, token):
        args = build_parser().parse_args([*self.PRICE, "--rd", token])
        assert repr(args.rd) == repr(float(token))

    def test_exponent_form_prints_what_other_forms_print(self):
        runs = [
            run_cli(*self.PRICE, *rd)
            for rd in (["--rd", "-5e-05"], ["--rd=-5e-05"], ["--rd", "-0.00005"])
        ]
        assert [proc.returncode for proc in runs] == [0, 0, 0]
        assert runs[0].stdout == runs[1].stdout == runs[2].stdout
        assert json.loads(runs[0].stdout)["d1"] == -0.0002499999999999898

    def test_capital_exponent_prices(self):
        proc = run_cli(*self.PRICE, "--rd", "-1E-3", check=True)
        market = MarketParams.risk_neutral(1.0, -1e-3, 0.02, 0.2)
        assert json.loads(proc.stdout)["premium"] == closed_form_price(
            market, OptionSpec("call", 1.0, 1.0)
        ).premium

    def test_negative_infinity_is_a_domain_error(self):
        proc = run_cli(*self.PRICE, "--rd", "-inf")
        assert proc.returncode == 2
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert json.loads(line)["error"] == "DomainError"

    def test_simulate_with_exponent_drift(self, tmp_path):
        target = tmp_path / "paths.csv"
        run_cli(
            "simulate", "--n-paths", "1000", "--n-steps", "252",
            "--horizon", "4.345105336947692", "--seed", "1881195827",
            "--u0", "0.5174015373714028", "--rd", "-1.8853706835639597e-05",
            "--rf", "0.03933820100075042", "--sigma", "0.37664684612919275",
            "--output", str(target), check=True,
        )
        assert target.read_text().count("\n") == 1 + 253  # header, t = 0 .. T

    def test_pde_grid_bounds_in_exponent_form(self):
        args = [*self.PRICE, "--rd", "0.05", "--method", "pde"]
        exponent = run_cli(*args, "--x-min", "-1e1", "--x-max", "1e1", check=True)
        decimal = run_cli(*args, "--x-min=-10", "--x-max=10", check=True)
        assert exponent.stdout == decimal.stdout


class TestOverflowingInputs:
    """Finite inputs whose sigma**2 or discount factor overflows a float exit
    2 or 3 with one JSON error line, not a traceback or a number."""

    CONTRACT = "--u0 1 --rf 0.01 --strike 1 --expiry 1"

    @pytest.mark.parametrize("command, error, code", [
        (f"price {CONTRACT} --rd 0.03 --sigma 1e200 --kind call", "DomainError", 2),
        (f"price {CONTRACT} --rd 0.03 --sigma 1e200 --kind call --method monte_carlo",
         "DomainError", 2),
        ("simulate --u0 1 --rf 0.01 --rd 0.03 --sigma 1e200 --n-paths 2 --n-steps 2 --horizon 1",
         "DomainError", 2),
        (f"price {CONTRACT} --rd -800 --sigma 0.2 --kind call", "NumericalError", 3),
        (f"price {CONTRACT} --rd -800 --sigma 0.2 --kind call --method quadrature",
         "NumericalError", 3),
        (f"price {CONTRACT} --rd -800 --sigma 0.2 --kind call --method monte_carlo",
         "NumericalError", 3),
        (f"parity {CONTRACT} --rd -800 --sigma 0.2", "NumericalError", 3),
    ])
    def test_exits_with_one_json_error(self, command, error, code):
        proc = run_cli(*command.split())
        assert proc.returncode == code
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert json.loads(line)["error"] == error

    def test_non_finite_result_is_not_printed(self):
        # The squared deviations of a 1e300 rate overflow, so the standard
        # error is inf, which strict JSON cannot hold.  numpy may warn first.
        proc = run_cli(*"price --method monte_carlo --u0 1e300 --strike 1e300 --rd 0.03 "
                        "--rf 0.01 --sigma 0.2 --expiry 1 --kind call --n-paths 1000".split())
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert json.loads(proc.stderr.splitlines()[-1])["error"] == "NumericalError"


class TestConfigFile:
    def config(self, tmp_path, payload):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def base_payload(self):
        return {
            "u0": 1.0,
            "strike": 1.0,
            "rd": 0.05,
            "rf": 0.02,
            "sigma": 0.2,
            "expiry": 1.0,
            "kind": "call",
        }

    def test_config_file_supplies_required_keys(self, tmp_path):
        cfg = self.config(tmp_path, self.base_payload())
        proc = run_cli("price", "--config", cfg, check=True)
        assert abs(json.loads(proc.stdout)["premium"] - STD_CALL) < 1e-12

    def test_flag_overrides_config_value(self, tmp_path):
        cfg = self.config(tmp_path, self.base_payload())
        proc = run_cli("price", "--config", cfg, "--kind", "put", check=True)
        assert abs(json.loads(proc.stdout)["premium"] - 0.06330080627549918) < 1e-12

    def test_unknown_config_key_exits_2(self, tmp_path):
        payload = self.base_payload()
        payload["colour"] = "blue"
        proc = run_cli("price", "--config", self.config(tmp_path, payload))
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["error"] == "ConfigError"

    def test_invalid_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        proc = run_cli("price", "--config", str(path))
        assert proc.returncode == 2

    def test_missing_file_exits_2(self, tmp_path):
        proc = run_cli("price", "--config", str(tmp_path / "absent.json"))
        assert proc.returncode == 2

    def test_wrong_type_in_config_exits_2(self, tmp_path):
        payload = self.base_payload()
        payload["sigma"] = "big"
        proc = run_cli("price", "--config", self.config(tmp_path, payload))
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "key, value",
        [("kind", "straddle"), ("method", "Monte_Carlo"), ("measure", "historical")],
    )
    def test_value_outside_choices_exits_2(self, tmp_path, key, value):
        # The config file is held to the same choices as the flag.
        payload = self.base_payload()
        payload[key] = value
        proc = run_cli("price", "--config", self.config(tmp_path, payload))
        assert proc.returncode == 2
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        err = json.loads(line)
        assert err["error"] == "ConfigError"
        assert key in err["message"]

    # JSON numbers that Python reads but cannot convert to the key's type:
    # an integer past float range for a float key, and the floats that
    # json reads as inf, -inf and nan for an integer key.
    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"u0": 1' + "0" * 400 + "}", "config key u0 must be a finite number"),
            ('{"u0": 1, "n_paths": 1e400}', "config key n_paths must be an integer"),
            ('{"u0": 1, "n_paths": -Infinity}', "config key n_paths must be an integer"),
            ('{"u0": 1, "n_paths": NaN}', "config key n_paths must be an integer"),
        ],
        ids=["huge_int_float_key", "overflow_int_key", "minus_infinity_int_key",
             "nan_int_key"],
    )
    def test_unconvertible_number_exits_2(self, text, message, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(text)
        argv = ["price", *STD_FLAGS[2:], "--config", str(path)]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {"error": "ConfigError", "message": message}


MARKET_ARGV = ["--u0", "1.1", "--rd", "0.03", "--rf", "0.01", "--sigma", "0.25"]
MARKET_SETTINGS = {"u0": 1.1, "rd": 0.03, "rf": 0.01, "sigma": 0.25}

# Per subcommand: an argv that sets every flag and the settings it resolves
# to, then an argv of the required settings only and the settings it
# resolves to, i.e. the documented defaults.
SETTINGS_SURFACE = {
    "price": (
        [*MARKET_ARGV, "--strike", "1.2", "--expiry", "0.5", "--kind", "put",
         "--method", "pde", "--n-paths", "5000", "--seed", "7", "--no-antithetic",
         "--tol", "1e-9", "--n-points", "801", "--n-time-steps", "200",
         "--x-min", "-2", "--x-max", "2.5", "--threads", "2"],
        {**MARKET_SETTINGS, "strike": 1.2, "expiry": 0.5, "kind": "put",
         "method": "pde", "n_paths": 5000, "seed": 7, "antithetic": False,
         "tol": 1e-9, "n_points": 801, "n_time_steps": 200, "x_min": -2.0,
         "x_max": 2.5, "threads": 2},
        [*MARKET_ARGV, "--strike", "1.2", "--expiry", "0.5", "--kind", "call"],
        {**MARKET_SETTINGS, "strike": 1.2, "expiry": 0.5, "kind": "call",
         "method": "closed_form", "n_paths": 100_000, "seed": 0,
         "antithetic": True, "tol": 1e-10, "n_points": 1601,
         "n_time_steps": 400, "x_min": None, "x_max": None, "threads": 1},
    ),
    "parity": (
        [*MARKET_ARGV, "--strike", "1.2", "--expiry", "0.5", "--sweep", "10",
         "--sweep-seed", "3"],
        {**MARKET_SETTINGS, "strike": 1.2, "expiry": 0.5, "sweep": 10,
         "sweep_seed": 3},
        [*MARKET_ARGV, "--strike", "1.2", "--expiry", "0.5"],
        {**MARKET_SETTINGS, "strike": 1.2, "expiry": 0.5, "sweep": 0,
         "sweep_seed": 0},
    ),
    "simulate": (
        [*MARKET_ARGV, "--horizon", "2", "--n-steps", "12", "--n-paths", "30",
         "--seed", "5", "--threads", "3", "--output", "paths.csv"],
        {**MARKET_SETTINGS, "horizon": 2.0, "n_steps": 12, "n_paths": 30,
         "seed": 5, "threads": 3, "output": "paths.csv"},
        [*MARKET_ARGV, "--horizon", "2"],
        {**MARKET_SETTINGS, "horizon": 2.0, "n_steps": 100, "n_paths": 1000,
         "seed": 0, "threads": 1, "output": None},
    ),
    "fokker-planck": (
        [*MARKET_ARGV, "--t", "0.5", "--n-points", "301", "--n-time-steps", "50",
         "--x-min", "-1", "--x-max", "1", "--output", "density.csv"],
        {**MARKET_SETTINGS, "t": 0.5, "n_points": 301, "n_time_steps": 50,
         "x_min": -1.0, "x_max": 1.0, "output": "density.csv"},
        [],
        {"u0": 1.0, "rd": 0.05, "rf": 0.02, "sigma": 0.2, "t": 1.0,
         "n_points": 2001, "n_time_steps": 1000, "x_min": None, "x_max": None,
         "output": None},
    ),
    "maxent-check": (
        ["--k", "0.09", "--k-prime", "0.02", "--spacing", "0.002",
         "--extent-sigmas", "8", "--tol", "1e-11", "--max-iter", "50",
         "--bound", "1e-5"],
        {"k": 0.09, "k_prime": 0.02, "spacing": 0.002, "extent_sigmas": 8.0,
         "tol": 1e-11, "max_iter": 50, "bound": 1e-5},
        [],
        {"k": 0.04, "k_prime": 0.01, "spacing": 1e-3, "extent_sigmas": 10.0,
         "tol": 1e-12, "max_iter": 100, "bound": 1e-6},
    ),
}


class TestSettingsSurface:
    """Each subcommand's flags, defaults and value types, checked in process."""

    @staticmethod
    def resolve(command, argv):
        return resolve_settings(build_parser().parse_args([command, *argv]))

    @staticmethod
    def assert_settings(got, want):
        assert got == want
        assert {k: type(v) for k, v in got.items()} == {
            k: type(v) for k, v in want.items()
        }

    def test_covers_every_subcommand(self):
        assert sorted(cli._COMMANDS) == sorted(SETTINGS_SURFACE)

    @pytest.mark.parametrize("command", sorted(SETTINGS_SURFACE))
    def test_every_flag_resolves(self, command):
        argv, want, _, _ = SETTINGS_SURFACE[command]
        self.assert_settings(self.resolve(command, argv), want)

    @pytest.mark.parametrize("command", sorted(SETTINGS_SURFACE))
    def test_required_only_resolves_to_defaults(self, command):
        _, _, argv, want = SETTINGS_SURFACE[command]
        self.assert_settings(self.resolve(command, argv), want)

    def test_setting_count(self):
        assert sum(len(schema) for schema in cli._SCHEMAS.values()) == 52


# Settings the CLI no longer has: each subcommand has one measure, Monte
# Carlo draws the terminal rate in one step, and maxent-check has one mode.
REMOVED_FLAGS = [
    ("price", ["--measure", "physical"]),
    ("parity", ["--measure", "physical"]),
    ("simulate", ["--measure", "risk_neutral"]),
    ("fokker-planck", ["--measure", "risk_neutral"]),
    ("price", ["--mc-steps", "3"]),
    ("maxent-check", ["--empty-constraints"]),
]
REMOVED_KEYS = [
    ("price", "measure", "physical"),
    ("simulate", "measure", "risk_neutral"),
    ("price", "mc_steps", 3),
    ("maxent-check", "empty_constraints", True),
]


class TestRemovedSettings:
    @pytest.mark.parametrize(
        "command, flag", REMOVED_FLAGS, ids=[f"{c}{f[0]}" for c, f in REMOVED_FLAGS]
    )
    def test_flag_exits_2(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, *SETTINGS_SURFACE[command][2], *flag])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize(
        "command, key, value", REMOVED_KEYS, ids=[f"{c}-{k}" for c, k, _ in REMOVED_KEYS]
    )
    def test_config_key_exits_2(self, command, key, value, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({key: value}))
        argv = [command, *SETTINGS_SURFACE[command][2], "--config", str(path)]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {
            "error": "ConfigError", "message": f"unknown config key: {key}"
        }


class TestParityCommand:
    def test_single_case(self):
        proc = run_cli(
            "parity",
            "--u0", "1.0", "--strike", "1.0", "--rd", "0.05", "--rf", "0.02",
            "--sigma", "0.2", "--expiry", "1.0",
            check=True,
        )
        data = json.loads(proc.stdout)
        assert abs(data["residual"]) <= data["bound"]

    def test_sweep(self):
        proc = run_cli(
            "parity",
            "--u0", "1.0", "--strike", "1.0", "--rd", "0.05", "--rf", "0.02",
            "--sigma", "0.2", "--expiry", "1.0",
            "--sweep", "10000", "--sweep-seed", "0",
            check=True,
        )
        data = json.loads(proc.stdout)
        assert data["n_cases"] == 10000
        assert data["max_abs_residual"] <= 1e-12

    @pytest.mark.parametrize(
        "sweep", [["--sweep", "3", "--sweep-seed", "-1"], ["--sweep", "-5"]],
        ids=["negative_seed", "negative_count"],
    )
    def test_bad_sweep_exits_2(self, sweep):
        proc = run_cli(
            "parity",
            "--u0", "1.0", "--strike", "1.0", "--rd", "0.05", "--rf", "0.02",
            "--sigma", "0.2", "--expiry", "1.0", *sweep,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert json.loads(line)["error"] == "DomainError"

    @staticmethod
    def per_case_sweep(market, n_cases, seed):
        """The sweep written out case by case: two uniform draws from
        random.Random(seed), and the residual from the call and put premiums
        written out with std_normal_cdf."""
        rng = random.Random(seed)
        cdf = pricing.std_normal_cdf
        worst, violations = 0.0, 0
        for _ in range(n_cases):
            strike = market.u0 * math.exp(rng.uniform(-0.7, 0.7))
            expiry = rng.uniform(0.1, 5.0)
            d1, d2 = _d1_d2(market, strike, expiry)
            spot = market.u0 * math.exp(-market.drift_f * expiry)
            strike_pv = strike * math.exp(-market.drift_d * expiry)
            call = spot * cdf(d1) - strike_pv * cdf(d2)
            put = strike_pv * cdf(-d2) - spot * cdf(-d1)
            residual = abs(call - put - (spot - strike_pv))
            worst = max(worst, residual)
            if residual > 1e-12 * max(market.u0, strike):
                violations += 1
        return worst, violations

    @pytest.mark.parametrize(
        "rf, sigma, n_cases, seed",
        [
            (0.02, 0.2, 3000, 0), (0.02, 0.2, 3000, 3), (0.02, 0.2, 3000, 17),
            (-3.0, 1.0, 3000, 3),  # some cases exceed the bound: exit 3
        ],
    )
    def test_sweep_matches_the_per_case_loop(self, rf, sigma, n_cases, seed, capsys):
        market = MarketParams.risk_neutral(1.1, 0.01, rf, sigma)
        worst, violations = self.per_case_sweep(market, n_cases, seed)
        code = cli.main([
            "parity", "--u0", "1.1", "--rd", "0.01", "--rf", repr(rf),
            "--sigma", repr(sigma), "--strike", "1", "--expiry", "1",
            "--sweep", str(n_cases), "--sweep-seed", str(seed),
        ])
        out, err = capsys.readouterr()
        if violations:
            assert code == 3
            assert f"{violations} of {n_cases} parity cases" in json.loads(err)["message"]
        else:
            assert code == 0
            assert out == json.dumps({"max_abs_residual": worst, "n_cases": n_cases}) + "\n"


class TestSimulateCommand:
    BASE = [
        "--u0", "1.0", "--rd", "0.05", "--rf", "0.02", "--sigma", "0.2",
        "--horizon", "1.0", "--n-steps", "5", "--n-paths", "4", "--seed", "9",
    ]

    def test_csv_shape_and_determinism(self):
        a = run_cli("simulate", *self.BASE, check=True)
        b = run_cli("simulate", *self.BASE, check=True)
        assert a.stdout == b.stdout
        lines = a.stdout.splitlines()
        assert lines[0] == "time,path_0,path_1,path_2,path_3"
        assert len(lines) == 7

    def test_csv_does_not_depend_on_threads(self):
        # 32768 steps put two paths in a block, so 5 paths are three blocks.
        args = ("simulate", *self.BASE, "--n-steps", "32768", "--n-paths", "5")
        outputs = {run_cli(*args, "--threads", n, check=True).stdout for n in ("1", "2", "3")}
        assert len(outputs) == 1

    def test_output_file(self, tmp_path):
        target = tmp_path / "paths.csv"
        proc = run_cli("simulate", *self.BASE, "--output", str(target), check=True)
        assert proc.stdout == ""
        inline = run_cli("simulate", *self.BASE, check=True)
        assert target.read_text() == inline.stdout

    def test_file_is_the_per_row_percent_g_text(self, tmp_path):
        # Each row as one "%.17g,...,%.17g" % row, as the writer printed it
        # before it formatted values with numpy; 17 digits read back exactly.
        target = tmp_path / "paths.csv"
        run_cli(
            "simulate", "--u0", "0.0081", "--rd", "0.1", "--rf", "0.0", "--sigma", "1.5",
            "--horizon", "1.7", "--n-steps", "60", "--n-paths", "300", "--seed", "21",
            "--output", str(target), check=True,
        )
        header, *rows = target.read_text().splitlines(keepends=True)
        assert header == "time," + ",".join(f"path_{j}" for j in range(300)) + "\n"
        assert len(rows) == 61
        for row in rows:
            values = [float(cell) for cell in row.split(",")]
            assert row == ",".join(["%.17g"] * 301) % tuple(values) + "\n"

    def test_tiny_sigma_terminal_is_drift(self):
        proc = run_cli(
            "simulate",
            "--u0", "1.0", "--rd", "0.05", "--rf", "0.02", "--sigma", "1e-12",
            "--horizon", "1.0", "--n-steps", "2", "--n-paths", "3", "--seed", "0",
            check=True,
        )
        last = proc.stdout.splitlines()[-1].split(",")
        drift = 0.05 - 0.02  # sigma^2/2 is negligible at 1e-12
        for cell in last[1:]:
            assert abs(float(cell) - drift) < 1e-8

    def test_bad_horizon_exits_2(self):
        proc = run_cli(
            "simulate",
            "--u0", "1.0", "--rd", "0.0", "--rf", "0.0", "--sigma", "0.2",
            "--horizon", "-1.0",
        )
        assert proc.returncode == 2

    def test_impossible_size_exits_2(self):
        # 10^20 values: refused before numpy is asked for the array.
        proc = run_cli(
            "simulate", *self.BASE, "--n-paths", "10000000000", "--n-steps", "10000000000",
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert json.loads(line)["error"] == "DomainError"

    def test_size_limit_counts_values(self, monkeypatch, capsys):
        # BASE holds 4 paths of 5 + 1 values: 24.
        monkeypatch.setattr(dynamics, "MAX_PATH_VALUES", 23)
        assert cli.main(["simulate", *self.BASE]) == 2
        monkeypatch.setattr(dynamics, "MAX_PATH_VALUES", 24)
        assert cli.main(["simulate", *self.BASE]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 7


class TestFokkerPlanckCommand:
    def test_default_run_emits_csv_and_diagnostic(self):
        proc = run_cli(
            "fokker-planck", "--n-points", "501", "--n-time-steps", "200",
            check=True,
        )
        density = read_density_csv(proc.stdout)
        assert density.n == 501
        assert density.mass() == pytest.approx(1.0, abs=1e-6)
        diag = json.loads(proc.stderr)
        assert diag["n_points"] == 501
        assert diag["l1_distance_to_analytic"] < 5e-2
        assert diag["mass"] == pytest.approx(1.0, abs=1e-6)

    def test_full_default_run_is_accurate(self):
        # At the default resolution the evolved density tracks the exact
        # law to better than 1e-3 in L1.
        proc = run_cli("fokker-planck", check=True)
        diag = json.loads(proc.stderr)
        assert diag["l1_distance_to_analytic"] < 1e-3

    def test_finer_grid_beats_coarser(self):
        coarse = json.loads(
            run_cli(
                "fokker-planck", "--n-points", "251", "--n-time-steps", "100",
                check=True,
            ).stderr
        )
        fine = json.loads(
            run_cli(
                "fokker-planck", "--n-points", "1001", "--n-time-steps", "400",
                check=True,
            ).stderr
        )
        assert fine["l1_distance_to_analytic"] < coarse["l1_distance_to_analytic"]

    def test_output_file(self, tmp_path):
        target = tmp_path / "density.csv"
        run_cli(
            "fokker-planck", "--n-points", "251", "--n-time-steps", "100",
            "--output", str(target),
            check=True,
        )
        density = read_density_csv(target.read_text())
        assert density.n == 251

    def test_file_is_the_per_row_f_string_text(self, tmp_path):
        # Each row as f"{x:.17g},{p:.17g}", as the writer printed it before
        # it formatted values with numpy.
        target = tmp_path / "density.csv"
        run_cli(
            "fokker-planck", "--u0", "2.5", "--rd", "0.1", "--rf", "0.0", "--sigma", "0.6",
            "--t", "2.0", "--n-points", "801", "--n-time-steps", "300",
            "--output", str(target), check=True,
        )
        text = target.read_text()
        density = read_density_csv(text)
        rows = [f"{x:.17g},{p:.17g}\n" for x, p in zip(density.points, density.weights)]
        assert text == "x,p\n" + "".join(rows)

    def test_narrow_grid_exits_3(self):
        proc = run_cli(
            "fokker-planck",
            "--x-min", "-0.1", "--x-max", "0.1",
            "--n-points", "101", "--n-time-steps", "100",
        )
        assert proc.returncode == 3
        assert json.loads(proc.stderr)["error"] == "MassLeak"

    def test_step_count_costs_nothing(self):
        # A billion time steps are one multiplier per mode, as 1,000 are.
        default = run_cli("fokker-planck", check=True)
        many = run_cli("fokker-planck", "--n-time-steps", "1000000000", check=True)
        a, b = read_density_csv(default.stdout), read_density_csv(many.stdout)
        assert float(np.sum(np.abs(a.weights - b.weights))) * a.h < 1e-4
        l1 = [json.loads(proc.stderr)["l1_distance_to_analytic"] for proc in (default, many)]
        assert l1[1] == pytest.approx(l1[0], abs=1e-4)

    def test_bad_t_exits_2(self):
        proc = run_cli("fokker-planck", "--t", "-1.0")
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "grid",
        [[], ["--x-min", "-2", "--x-max", "2"]],
        ids=["default_grid", "given_grid"],
    )
    def test_zero_time_steps_exits_2(self, grid):
        proc = run_cli("fokker-planck", "--n-time-steps", "0", *grid)
        assert proc.returncode == 2
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert json.loads(line)["error"] == "DomainError"


    @pytest.mark.parametrize("n_time_steps", ["1", "2", "10"])
    def test_few_time_steps_evolve(self, n_time_steps):
        # A handful of long steps, where plain Crank-Nicolson rings on the
        # narrow start, still gives a non-negative density of unit mass.
        proc = run_cli("fokker-planck", "--n-time-steps", n_time_steps, check=True)
        density = read_density_csv(proc.stdout)
        assert np.all(density.weights >= 0.0)
        diag = json.loads(proc.stderr)
        assert diag["mass"] == pytest.approx(1.0, abs=1e-6)
        assert diag["l1_distance_to_analytic"] < 0.2

    def test_mode_removed_in_one_step_warns_nothing(self):
        # Zero log drift (rd - rf = sigma^2/2), h = 0.5 and dt = 0.25 put
        # x = lam dt/2 at -1 exactly for the top mode of the 2048-long
        # padding, where g = 0.  Its factor is 0 without a numpy warning, so
        # stderr holds only the diagnostic.
        proc = run_cli(
            "fokker-planck", "--u0", "1", "--rd", "0.5", "--rf", "0", "--sigma", "1",
            "--x-min", "-255.75", "--x-max", "255.75", "--n-points", "1024",
            "--n-time-steps", "4", check=True,
        )
        [line] = proc.stderr.splitlines()
        assert json.loads(line)["mass"] == pytest.approx(1.0, abs=1e-6)


PDE_ARGV = ["price", *STD_FLAGS, "--method", "pde"]


@pytest.mark.parametrize("bound", [["--x-min", "-2"], ["--x-max", "2"]], ids=["x_min", "x_max"])
@pytest.mark.parametrize("command", [PDE_ARGV, ["fokker-planck"]], ids=["price", "fokker_planck"])
def test_lone_grid_bound_exits_2(command, bound, capsys):
    # A grid override needs both bounds; one alone is a config error.
    assert cli.main([*command, *bound]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {
        "error": "ConfigError", "message": "x_min and x_max must be given together"
    }


class TestGridLimits:
    @pytest.mark.parametrize(
        "command",
        [
            ["fokker-planck"],
            ["price", *STD_FLAGS, "--method", "pde"],
            ["price", *STD_FLAGS, "--method", "all", "--n-paths", "1000"],
        ],
        ids=["fokker-planck", "price_pde", "price_all"],
    )
    def test_oversized_grid_exits_2(self, command):
        proc = run_cli(*command, "--n-points", "2000001")
        assert proc.returncode == 2
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        error = json.loads(line)
        assert error["error"] == "DomainError"
        assert "n_points" in error["message"]


class TestMaxentCheckCommand:
    def test_default_round_trip(self):
        proc = run_cli("maxent-check", check=True)
        data = json.loads(proc.stdout)
        assert data["k"] == 0.04 and data["k_prime"] == 0.01
        assert data["multiplier"] == pytest.approx(
            data["expected_multiplier"], rel=1e-9
        )
        assert data["recovered_variance"] == pytest.approx(0.01, rel=1e-6)
        assert data["max_pointwise_error"] < 1e-6
        assert data["residual_norm"] <= 1e-12

    def test_unattainable_bound_exits_3(self):
        proc = run_cli("maxent-check", "--bound", "1e-30")
        assert proc.returncode == 3
        assert json.loads(proc.stderr)["error"] == "NumericalError"

    def test_iteration_budget_exits_3(self):
        proc = run_cli("maxent-check", "--max-iter", "1")
        assert proc.returncode == 3
        assert json.loads(proc.stderr)["error"] == "NoConvergence"

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--k", "-0.04"), ("--extent-sigmas", "nan"), ("--extent-sigmas", "inf"),
            ("--bound", "nan"), ("--bound", "inf"), ("--bound", "0"),
        ],
        ids=[
            "k", "extent_sigmas_nan", "extent_sigmas_inf",
            "bound_nan", "bound_inf", "bound_zero",
        ],
    )
    def test_bad_k_exits_2(self, flag, value):
        proc = run_cli("maxent-check", flag, value)
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["error"] == "DomainError"

    @pytest.mark.parametrize(
        "flags",
        [
            ["--k", "1e300"], ["--extent-sigmas", "1e200"], ["--spacing", "1e-9"],
            ["--spacing", "5e-324"], ["--k", "1e308", "--extent-sigmas", "1e200"],
        ],
        ids=["k", "extent_sigmas", "spacing", "subnormal_spacing", "overflow"],
    )
    def test_oversized_grid_exits_2_before_allocating(self, flags, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("the grid was allocated")

        monkeypatch.setattr(np, "linspace", refuse)
        assert cli.main(["maxent-check", *flags]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["error"] == "DomainError"

    def test_grid_limit_counts_points(self, monkeypatch, capsys):
        # The default grid is 2 * 10 * sqrt(0.04) / 1e-3 + 1 = 4001 points.
        monkeypatch.setattr(grids, "MAX_GRID_POINTS", 4000)
        assert cli.main(["maxent-check"]) == 2
        monkeypatch.setattr(grids, "MAX_GRID_POINTS", 4001)
        assert cli.main(["maxent-check"]) == 0
        assert json.loads(capsys.readouterr().out)["iterations"] > 0


class TestPipelines:
    # Each CSV is many times a pipe's capacity, so the CLI is still writing
    # when the reader closes its end.
    STREAMS = [
        ["simulate", "--u0", "1.0", "--rd", "0.05", "--rf", "0.02", "--sigma", "0.2",
         "--horizon", "1.0", "--n-steps", "2000", "--n-paths", "50", "--seed", "0"],
        ["fokker-planck", "--n-points", "20001", "--n-time-steps", "50"],
    ]

    def test_broken_pipe_is_not_an_error(self):
        # A reader that closes the pipe after one line, as head does, must
        # not crash the CLI: it exits 0 itself, without a traceback.
        for args in self.STREAMS:
            proc = subprocess.Popen(
                [sys.executable, "-m", "entropic_fx", *args],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            try:
                header = proc.stdout.readline()
                proc.stdout.close()
                err = proc.stderr.read().decode()
                code = proc.wait(timeout=120)
            finally:
                proc.kill()
                proc.stderr.close()
            assert header.startswith(b"time," if args[0] == "simulate" else b"x,p")
            assert code == 0, err
            assert "Traceback" not in err

    def test_simulate_csv_loads_with_numpy(self):
        proc = run_cli("simulate", *TestSimulateCommand.BASE, check=True)
        rows = [line.split(",") for line in proc.stdout.splitlines()[1:]]
        data = np.array([[float(c) for c in row] for row in rows])
        assert data.shape == (6, 5)
        assert np.all(data[0, 1:] == 0.0)  # ln u0 = 0 start
        assert math.isfinite(data[-1, 1:].std())


class TestStreamedCsv:
    """simulate and fokker-planck write their CSV chunk by chunk as it is
    formatted, never as one whole text."""

    SIMULATE = [
        "simulate", "--u0", "1.0", "--rd", "0.05", "--rf", "0.02", "--sigma", "0.2",
        "--horizon", "1.0", "--seed", "4", "--threads", "1",
    ]

    @staticmethod
    def whole_text(command, text):
        """The text paths_to_csv or density_to_csv gives for the table a CSV
        holds; 17 significant digits read back exactly."""
        if command == "fokker-planck":
            return density_to_csv(read_density_csv(text))
        header, *rows = text.splitlines()
        table = np.array([[float(cell) for cell in row.split(",")] for row in rows])
        return paths_to_csv(PathSet(table[:, 0], table[:, 1:].T))

    @pytest.mark.parametrize(
        "args",
        [
            # 2501 values a row: each row spans two chunks, 41 rows 82.
            [*SIMULATE, "--n-steps", "40", "--n-paths", "2500"],
            # 20001 rows of two values: about 20 chunks.
            ["fokker-planck", "--n-points", "20001", "--n-time-steps", "50"],
        ],
        ids=["simulate", "fokker-planck"],
    )
    def test_output_stdout_and_whole_text_are_the_same_bytes(self, args, tmp_path):
        target = tmp_path / "out.csv"
        argv = [sys.executable, "-m", "entropic_fx", *args]
        written = subprocess.run(
            [*argv, "--output", str(target)], capture_output=True, timeout=240, check=True
        )
        assert written.stdout == b""
        piped = subprocess.run(argv, capture_output=True, timeout=240, check=True).stdout
        text = target.read_bytes()
        assert text.count(b",") + text.count(b"\n") > 15 * grids._CSV_CHUNK  # values
        assert piped == text
        assert self.whole_text(args[0], text.decode("ascii")) == text.decode("ascii")

    def test_simulate_holds_no_copy_of_the_text(self, tmp_path):
        # tracemalloc sees numpy's buffers.  Written as one text, the CSV
        # was held about twice over; streamed, the peak is the paths plus
        # the temporaries of the simulation and of one chunk.
        n_paths, n_steps = 600, 1000
        target = tmp_path / "paths.csv"
        argv = [*self.SIMULATE, "--n-steps", str(n_steps), "--n-paths", str(n_paths)]
        tracemalloc.start()
        try:
            code = cli.main([*argv, "--output", str(target)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        size = target.stat().st_size
        assert size > 10**7
        assert peak - 8 * (n_paths + 1) * (n_steps + 1) < size / 4
