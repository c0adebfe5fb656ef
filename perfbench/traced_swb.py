"""One ``swb`` command under the per-layer tracer.

    python3 perfbench/traced_swb.py TRACE_JSON [swb arguments...]

Imports ``sectorwb.cli`` (PYTHONPATH must reach the checkout's ``src``),
wraps the layer functions, runs the command and writes the tracer's totals
to TRACE_JSON for the parent to merge.  Exits with the command's code.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from sectorwb import cli  # noqa: E402
from tracer import Tracer  # noqa: E402

if __name__ == "__main__":
    tracer = Tracer().install()
    try:
        code = cli.main(sys.argv[2:])
    finally:
        with open(sys.argv[1], "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    sys.exit(code)
