"""No import or CLI subcommand loads scipy, only the grid solvers load
numpy.fft, and the package import, the closed-form price and parity, one case
or a sweep, load no numpy at all.

scipy is not a runtime dependency: the grid solvers' transforms are numpy's
(numpy.fft), and quadrature is a numpy Gauss-Legendre rule.  Tests still use
scipy as a reference.  Each check runs in a fresh interpreter, because this
test process already holds numpy and may hold scipy.
"""

import ast
import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest



def loaded(package: str) -> str:
    """Code that prints the loaded modules of ``package`` as a JSON list."""
    return f'print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == {package!r})))'


_REPORT = loaded("scipy")
# Imports the module named by argv[1].
_IMPORT = "import importlib, json, sys\nimportlib.import_module(sys.argv[1])\n"
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
    assert report(_IMPORT + _REPORT, module) == []


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
        [
            "simulate", *MARKET, "--horizon", "1.0", "--n-steps", "5",
            "--n-paths", "4", "--seed", "1",
        ],
    ],
    ids=["simulate"],
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


# The commands that need only math: closed-form price and parity, one case
# or a sweep.
MATH_ONLY = {
    "price": ["price", *MARKET, *OPTION, "--kind", "call"],
    "price_put": ["price", *MARKET, *OPTION, "--kind", "put", "--method", "closed_form"],
    "parity": ["parity", *MARKET, *OPTION],
    "parity_sweep": ["parity", *MARKET, *OPTION, "--sweep", "50"],
}


@pytest.mark.parametrize("module", ["entropic_fx", "entropic_fx.cli"])
def test_import_loads_no_numpy(module):
    assert report(_IMPORT + loaded("numpy"), module) == []


@pytest.mark.parametrize("argv", MATH_ONLY.values(), ids=MATH_ONLY)
def test_math_only_commands_load_no_numpy(argv):
    assert report(_RUN + loaded("numpy"), *argv) == []


@pytest.mark.parametrize("argv", MATH_ONLY.values(), ids=MATH_ONLY)
def test_math_only_commands_run_with_numpy_blocked(argv):
    # A None entry in sys.modules makes every import of numpy fail.
    code = (
        "import sys\nsys.modules['numpy'] = None\n"
        "from entropic_fx import cli\nsys.exit(cli.main())"
    )
    run = functools.partial(subprocess.run, capture_output=True, timeout=120)
    blocked = run([sys.executable, "-c", code, *argv])
    normal = run([sys.executable, "-m", "entropic_fx", *argv])
    assert (blocked.returncode, blocked.stderr) == (normal.returncode, normal.stderr) == (0, b"")
    assert blocked.stdout == normal.stdout
    assert json.loads(blocked.stdout)


# Every name that ``entropic_fx`` exports.  A name resolves to the object of
# the module that defines it, and to the same object where dynamics or
# pricing re-export it.
PACKAGE_NAMES = [
    "ConstraintSpec", "DensityGrid", "DomainError", "FPGridSpec", "FirstMoment",
    "GridMismatch", "GridTooNarrow", "InfeasibleConstraints", "MarketParams", "MassLeak",
    "MeasureError", "MultiplierSolution", "NoConvergence", "NumericalError", "OptionSpec",
    "PHYSICAL", "PathSet", "PriceResult", "RISK_NEUTRAL", "SecondCentralMoment",
    "SupportViolation", "ToleranceNotMet", "TransitionDensity",
    "alpha_from_entropic_time", "analytic_density", "beta_multiplier", "block_rng",
    "closed_form_price", "default_grid", "default_pde_grid", "density_to_csv", "dynamics",
    "errors", "evolve_density", "fokker_planck", "gaussian_density", "grids",
    "l1_distance", "log_coordinate", "maxent", "mc_price", "parity_residual",
    "paths_to_csv", "pde_price", "point_mass_density", "pricing", "quadrature_price",
    "relative_entropy", "require_same_grid", "same_grid", "simulate_paths", "solve_maxent",
    "std_normal_cdf", "transition_density", "transition_pdf", "uniform_density",
]
# Names the package once exported: closed_form_price and the _d1_d2 it
# returns as diagnostics do their jobs, and the rest only tests called.
REMOVED_NAMES = [
    "TabulatedMoment", "d1_d2", "density_from_csv", "gk_call", "gk_put",
    "variance_from_alpha",
]
_RESOLVE = """
import json, sys, types
import entropic_fx
from entropic_fx import dynamics, market, pricing
star = {}
exec("from entropic_fx import *", star)
wrong = sorted(set(sys.argv[1:]) ^ {k for k in star if not k.startswith("_")})
for name in sys.argv[1:]:
    value = getattr(entropic_fx, name)
    if isinstance(value, types.ModuleType):
        home = value.__name__ == "entropic_fx." + name
    elif isinstance(value, str):
        home = value is getattr(market, name)
    else:
        home = value is getattr(sys.modules[value.__module__], name)
    same = all(getattr(m, name, value) is value for m in (dynamics, pricing))
    if not (home and same and star[name] is value):
        wrong.append(name)
print(json.dumps(wrong))
"""


def test_package_names_resolve():
    assert len(PACKAGE_NAMES) == 56
    assert report(_RESOLVE, *PACKAGE_NAMES) == []


def test_removed_names_are_gone():
    import entropic_fx
    from entropic_fx import dynamics, market, pricing

    for module in (entropic_fx, market, dynamics, pricing):
        assert [name for name in REMOVED_NAMES if hasattr(module, name)] == []


def test_market_imports_nothing_that_loads_numpy():
    # At any depth, so a lazy import inside a function counts too: market
    # is the closed form's whole module, and the math-only commands load
    # numpy through nothing else.
    path = Path(__file__).resolve().parents[1] / "src" / "entropic_fx" / "market.py"
    parts = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            parts.update(p for alias in node.names for p in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            parts.update((node.module or "").split("."))
            parts.update(alias.name for alias in node.names)
    assert "errors" in parts
    heavy = {"numpy", "pricing", "dynamics", "grids", "fokker_planck", "maxent"}
    assert sorted(parts & heavy) == []
