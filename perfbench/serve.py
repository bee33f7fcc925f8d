"""``repro serve`` with the front's public calls wrapped in spans.

Usage (from the checkout root)::

    python3 perfbench/serve.py SPANS.json serve --socket PATH --jobs 2

Installs :data:`perfbench.tracing.FRONT_SPANS` in this process, runs
the ``repro`` CLI with the remaining arguments until SIGTERM, then
writes every recorded span to ``SPANS.json``.  Pool workers forked from
this process pass through the wrappers without recording.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import tracing  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer, tracing.FRONT_SPANS)
    from repro.cli import main as repro_main

    try:
        return repro_main(argv)
    finally:
        Path(spans_path).write_text(json.dumps(tracer.spans))


if __name__ == "__main__":
    sys.exit(main())
