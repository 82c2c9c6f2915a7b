"""One cold ``privmetrics`` CLI call with spans around the calls into the package.

    python perfbench/cli_traced.py SPANS.json compute METRIC --in FILE ... --format json

Imports ``privmetrics.cli``, installs the tracer, runs the command exactly as
``python -m privmetrics.cli`` would, and writes the span summary to SPANS.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tracing import Tracer


def main():
    spans_path, args = sys.argv[1], sys.argv[2:]
    import privmetrics.cli as cli

    tracer = Tracer()
    tracer.install()
    try:
        cli.main(args=args, prog_name="privmetrics")
    finally:
        Path(spans_path).write_text(json.dumps(tracer.summary()))


if __name__ == "__main__":
    main()
