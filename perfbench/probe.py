"""Set-up probe for ``setup_s``: ``python3 perfbench/probe.py WORKLOAD``.

Runs the workload's set-up in this fresh interpreter and prints
``time.monotonic()`` at its end; the parent subtracts its own reading taken
just before it started this process.
"""

import importlib
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import harness  # noqa: E402

if __name__ == "__main__":
    wl = importlib.import_module(harness.WORKLOADS[sys.argv[1]])
    ctx = wl.setup()
    done = time.monotonic()
    wl.teardown(ctx)
    print(done)
