"""The CSV number writer, grids._csv_chunks, against Python's "%.17g".

_csv_chunks formats 1e-4 <= |x| < 1e16 with numpy and hands every other
value to "%.17g"; each test here compares whole rows of text with the
per-value "%.17g" writer, byte for byte.
"""

import subprocess
import sys
from decimal import ROUND_HALF_EVEN, ROUND_HALF_UP, Context, Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropic_fx import MarketParams, density_to_csv
from entropic_fx import fokker_planck as fp
from entropic_fx.grids import DensityGrid, _csv_chunks


def per_value_rows(table) -> str:
    rows = np.asarray(table, dtype=float).tolist()
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows)


def assert_same_text(values, n_cols=1):
    table = np.asarray(values, dtype=float).reshape(-1, n_cols)
    text, expected = "".join(_csv_chunks("", table)), per_value_rows(table)
    if text != expected:
        # Name the first row that differs; a diff of the whole text is slow.
        rows = zip(text.splitlines(), expected.splitlines(), table.tolist())
        got, want, row = next(r for r in rows if r[0] != r[1])
        pytest.fail(f"row {row!r}: wrote {got!r}, %.17g gives {want!r}")


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
    st.integers(min_value=1, max_value=4),
)
def test_any_finite_floats(values, n_cols):
    values += values[:1] * (-len(values) % n_cols)
    assert_same_text(values, n_cols)


def test_random_bit_patterns():
    bits = np.random.default_rng(20261019).integers(
        0, 2**64, size=1 << 20, dtype=np.uint64
    )
    assert_same_text(bits.view(np.float64), n_cols=16)


def test_random_bit_patterns_in_the_numpy_range():
    # Most random bit patterns fall outside 1e-4..1e16, so also draw the
    # binary exponent from 2**-14..2**53 with random sign and mantissa.
    rng = np.random.default_rng(7)
    n = 1001 * 1024
    bits = rng.integers(0, 2**52, size=n, dtype=np.uint64)
    bits |= rng.integers(1023 - 14, 1023 + 54, size=n).astype(np.uint64) << np.uint64(52)
    bits |= rng.integers(0, 2, size=n).astype(np.uint64) << np.uint64(63)
    assert_same_text(bits.view(np.float64), n_cols=1001)


def test_rows_wider_than_a_chunk():
    # A row longer than grids._CSV_CHUNK values is written in several chunks.
    values = np.random.default_rng(11).normal(size=3 * 5001) * 1e3
    assert_same_text(values, n_cols=5001)


def test_edges_of_the_numpy_range():
    edges = [1e-4, 1e16, 2.0**53, 2.0**53 + 2.0, 2.0**-14, 9999999999999998.0]
    for k in range(-6, 18):
        p = float(f"1e{k}")
        edges += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
        edges += [p + j * np.spacing(p) for j in range(-8, 9)]
    edges += [0.0, -0.0, 5e-324, 2.2250738585072014e-308, np.inf, -np.inf, np.nan]
    edges = np.array(edges)
    assert_same_text(np.concatenate([edges, -edges]), n_cols=2)


def exact_ties(count: int, seed: int) -> list[float]:
    """Doubles in 1e-4..1e16 whose exact decimal value has 18 significant
    digits, the last a 5: "%.17g" rounds each of them half-even."""
    rng = np.random.default_rng(seed)
    ties = []
    while len(ties) < count:
        f = int(rng.integers(2, 22))  # k / 2**f has f decimals, the last 5
        bits = int(rng.integers(f + 1, 54))
        k = int(rng.integers(2 ** (bits - 1), 2**bits)) | 1
        x = k / 2**f
        if 1e-4 <= x < 1e16 and len(Decimal(x).as_tuple().digits) == 18:
            ties.append(x)
    return ties


def test_exact_ties_round_half_even():
    ties = exact_ties(2000, seed=3)
    assert_same_text(ties + [-x for x in ties], n_cols=10)
    # Half-up rounding differs on every tie whose 17th digit is even.
    half_even, half_up = Context(prec=17, rounding=ROUND_HALF_EVEN), Context(
        prec=17, rounding=ROUND_HALF_UP
    )
    differ = sum(half_even.plus(Decimal(x)) != half_up.plus(Decimal(x)) for x in ties)
    assert differ > len(ties) // 4
    assert "".join(_csv_chunks("", np.array([[123456789012345.625]]))) == "123456789012345.62\n"


def test_row_layout():
    table = np.array([[0.5, -1.25, 0.0], [1e-5, 3.0, -0.0]])
    text = "".join(_csv_chunks("h\n", table))
    assert text == "h\n0.5,-1.25,0\n1.0000000000000001e-05,3,-0\n"


def test_tables_are_built_on_first_use():
    code = (
        "import entropic_fx.cli\n"
        "from entropic_fx.grids import _csv_tables\n"
        "print(_csv_tables.cache_info().currsize)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True
    )
    assert proc.stdout.split() == ["0"]


def per_row_density_csv(grid: DensityGrid) -> str:
    # The per-row f-string writer density_to_csv replaced.
    lines = ["x,p\n"]
    for x, p in zip(grid.points, grid.weights):
        lines.append(f"{x:.17g},{p:.17g}\n")
    return "".join(lines)


class TestDensityCsv:
    def test_extreme_weights(self):
        tiny = np.finfo(float).smallest_subnormal
        weights = [0.0, -0.0, tiny, 2.2250738585072014e-308, 1e-300, 1e-5, 0.25,
                   1e16, 1e300, np.finfo(float).max]
        grid = DensityGrid(np.linspace(-1e-3, 1e17, len(weights)), weights)
        assert density_to_csv(grid) == per_row_density_csv(grid)

    def test_evolved_density(self):
        market = MarketParams(u0=1.3, drift_d=0.05, drift_f=0.02, sigma=0.3)
        spec = fp.default_grid(market, 0.5, 401, 100)
        points = spec.points()
        initial = fp.point_mass_density(points, np.log(market.u0))
        evolved = fp.evolve_density(initial, market, 0.5, spec)
        assert density_to_csv(evolved) == per_row_density_csv(evolved)
