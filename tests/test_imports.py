"""Each CLI subcommand loads only the scipy modules it calls.

scipy is most of the package's import time, and the package uses only its
LAPACK tridiagonal factor and solve (scipy.linalg), imported inside the
PDE and Fokker-Planck routines rather than at module top.  Closed-form and
quadrature pricing, parity, simulation and the maxent check load no scipy.
Each check runs in a fresh interpreter, because this test process may
already hold scipy.
"""

import json
import subprocess
import sys

import pytest

_REPORT = (
    'print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))'
)
# Imports the module named by argv[1].
_IMPORT = "import importlib, json, sys\nimportlib.import_module(sys.argv[1])\n" + _REPORT
# Runs the CLI command given by argv[1:] in-process, stdout discarded.
_RUN_COMMAND = """
import contextlib, io, json, sys
from entropic_fx import cli
with contextlib.redirect_stdout(io.StringIO()):
    if cli.main(sys.argv[1:]) != 0:
        sys.exit("command failed")
""" + _REPORT

MARKET = ["--u0", "1.0", "--rd", "0.05", "--rf", "0.02", "--sigma", "0.2"]
OPTION = ["--strike", "1.0", "--expiry", "1.0"]


def scipy_loaded(code: str, *argv: str) -> list[str]:
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", ["entropic_fx", "entropic_fx.cli"])
def test_import_loads_no_scipy(module):
    assert scipy_loaded(_IMPORT, module) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["price", *MARKET, *OPTION, "--kind", "call"],
        ["price", *MARKET, *OPTION, "--kind", "call", "--method", "quadrature"],
        ["parity", *MARKET, *OPTION, "--sweep", "50"],
        [
            "simulate", *MARKET, "--horizon", "1.0", "--n-steps", "5",
            "--n-paths", "4", "--seed", "1",
        ],
        ["maxent-check"],
    ],
    ids=["price", "price_quadrature", "parity", "simulate", "maxent-check"],
)
def test_scipy_free_commands(argv):
    assert scipy_loaded(_RUN_COMMAND, *argv) == []


def test_cli_import_loads_no_thread_pool():
    # concurrent.futures, and the logging it imports, load only when a
    # Monte Carlo run starts a pool.
    code = "import sys\nimport entropic_fx.cli\nprint('concurrent.futures' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True
    )
    assert proc.stdout.split() == ["False"]


def linalg_only(loaded: list[str]) -> bool:
    heavy = ("scipy.integrate", "scipy.interpolate")
    return "scipy.linalg" in loaded and not any(m.startswith(heavy) for m in loaded)


def test_fokker_planck_loads_only_linalg():
    loaded = scipy_loaded(
        _RUN_COMMAND,
        "fokker-planck", *MARKET, "--n-points", "401", "--n-time-steps", "100",
    )
    assert linalg_only(loaded), loaded


@pytest.mark.parametrize("method", ["pde", "all"])
def test_pde_pricing_loads_only_linalg(method):
    loaded = scipy_loaded(
        _RUN_COMMAND,
        "price", *MARKET, *OPTION, "--kind", "call", "--method", method,
        "--n-paths", "1000",
    )
    assert linalg_only(loaded), loaded
