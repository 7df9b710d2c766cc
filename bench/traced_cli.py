"""Run the entropic-fx CLI with spans around the library's public functions.

Usage: python3 bench/traced_cli.py SPANS_JSON [entropic-fx arguments...]

Behaves like ``python -m entropic_fx`` (same output, same exit code) and
writes the spans, as a JSON list, to SPANS_JSON when the command ends.
"""

import json
import sys
from pathlib import Path

import tracing

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import entropic_fx.cli as cli  # noqa: E402


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
