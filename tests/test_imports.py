"""No import or CLI subcommand loads scipy, and only the grid solvers load
numpy.fft.

scipy is not a runtime dependency: the grid solvers' transforms are numpy's
(numpy.fft), and quadrature is a numpy Gauss-Legendre rule.  Tests still use
scipy as a reference.  Each check runs in a fresh interpreter, because this
test process may already hold scipy.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

_REPORT = (
    'print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))'
)
# Imports the module named by argv[1].
_IMPORT = "import importlib, json, sys\nimportlib.import_module(sys.argv[1])\n" + _REPORT
# Runs the CLI command given by argv[1:] in-process, stdout discarded.
_RUN = """
import contextlib, io, json, sys
from entropic_fx import cli
with contextlib.redirect_stdout(io.StringIO()):
    if cli.main(sys.argv[1:]) != 0:
        sys.exit("command failed")
"""
_RUN_COMMAND = _RUN + _REPORT

MARKET = ["--u0", "1.0", "--rd", "0.05", "--rf", "0.02", "--sigma", "0.2"]
OPTION = ["--strike", "1.0", "--expiry", "1.0"]


def report(code: str, *argv: str):
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_source_imports_no_scipy():
    # Also the lazy imports inside functions, which the commands below may not reach.
    src = Path(__file__).resolve().parents[1] / "src" / "entropic_fx"
    imported = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module)
    assert "numpy" in imported
    assert not [m for m in imported if m.split(".")[0] == "scipy"]


@pytest.mark.parametrize("module", ["entropic_fx", "entropic_fx.cli"])
def test_import_loads_no_scipy(module):
    assert report(_IMPORT, module) == []


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
        ["fokker-planck", *MARKET, "--n-points", "401", "--n-time-steps", "100"],
        ["price", *MARKET, *OPTION, "--kind", "call", "--method", "pde"],
        [
            "price", *MARKET, *OPTION, "--kind", "call", "--method", "all",
            "--n-paths", "1000",
        ],
    ],
    ids=[
        "price", "price_quadrature", "parity", "simulate", "maxent-check",
        "fokker-planck", "price_pde", "price_all",
    ],
)
def test_scipy_free_commands(argv):
    assert report(_RUN_COMMAND, *argv) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["price", *MARKET, *OPTION, "--kind", "call"],
        [
            "simulate", *MARKET, "--horizon", "1.0", "--n-steps", "5",
            "--n-paths", "4", "--seed", "1",
        ],
    ],
    ids=["price", "simulate"],
)
def test_commands_without_a_grid_load_no_fft(argv):
    # numpy.fft adds ~0.25 MB; the grid solvers reach it as np.fft when they
    # run.  A numpy that loads it on import loads it for every command.
    check = "print(json.dumps('numpy.fft' in sys.modules))"
    assert report(_RUN + check, *argv) == report("import json, sys, numpy\n" + check)


def test_cli_import_loads_no_thread_pool():
    # concurrent.futures, and the logging it imports, load only when a
    # Monte Carlo run starts a pool.
    code = "import sys\nimport entropic_fx.cli\nprint('concurrent.futures' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True
    )
    assert proc.stdout.split() == ["False"]
