"""tools/src_lines.py, the source line count, on a small tree of known counts."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"

# 9 physical lines; code lines are the def, the three lines of the
# assignment and the return: 5.
MODULE = '''"""Module docstring."""
# A comment-only line.

def f(x):
    """Function docstring."""
    y = (x +
         1 +
         2)
    return y  # a trailing comment
'''


def test_counts_physical_and_code_lines(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(MODULE)
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    header, row, total = [line.split() for line in proc.stdout.splitlines()]
    assert header == ["module", "lines", "code"]
    assert row == ["src/pkg/mod.py", "9", "5"]
    # One module: the total row is its row.
    assert total == ["total", *row[1:]]
