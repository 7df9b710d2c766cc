"""Count the lines of each module under src/: physical lines and code lines.

Usage, from the root of a checkout (or any checkout given as the argument):

    python3 tools/src_lines.py [ROOT]

A code line is a line that holds part of a statement other than a
docstring: blank lines, comment-only lines and the lines of docstrings
(module, class and function) are not code.  Lines are counted from the
``ast`` of each module, so a statement that spans several lines counts
each of them, and a comment after code does not hide the code.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path


def docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        if isinstance(node, kinds) and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines that carry a token of a statement outside a docstring."""
    skip = docstring_lines(ast.parse(source))
    ignored = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
               tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in ignored:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    modules = sorted((root / "src").rglob("*.py"))
    if not modules:
        print(f"no Python modules under {root / 'src'}", file=sys.stderr)
        return 1
    total_physical = total_code = 0
    print(f"{'module':<40} {'lines':>7} {'code':>7}")
    for path in modules:
        source = path.read_text(encoding="utf-8")
        physical = len(source.splitlines())
        code = code_lines(source)
        total_physical += physical
        total_code += code
        print(f"{str(path.relative_to(root)):<40} {physical:>7} {code:>7}")
    print(f"{'total':<40} {total_physical:>7} {total_code:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
