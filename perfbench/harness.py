"""Closed-loop measurement, statistics, provenance and the result line.

A workload module provides ``setup``, ``once``, ``round_ops``, ``prepare``,
``call`` and ``check`` (see README.md).  One caller runs the ops one after
another.  Only ``call`` (the calls into the program) is timed; generating an
op's input and checking its result against the reference are not.  A run
measures whole rounds until at least ``seconds`` have passed, so every run
measures complete, equally composed rounds.

Times are reported at reference speed.  On a shared two-vCPU virtual machine
(Intel Xeon, Python 3.11.7, numpy 2.4.6) the same call ran up to 60% slower
for stretches of one to twenty seconds, and a whole run can fall in one.  A fixed
pure-Python kernel slows in the same stretches, so the harness times it every
CALIBRATE_EVERY_S and multiplies each measured time by
(CAL_REF_MS / current kernel time) ** SENSITIVITY.  The kernel is more
sensitive than the program: regressing log op time on log kernel time over
40 s gave slopes of 0.61 (rho_apply), 0.68 (validate_ring), 0.92 (q6j),
0.94 (decompose) and 0.5 to 0.7 for an swb process.  With SENSITIVITY 0.7
the spread over ten seeds stayed below 10% on every timing metric of every
workload; 0.9 for sector-queries alone traded a smaller ops_per_s spread
for a larger op_tail_ms one.  The report line keeps the raw times too.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import deque
from pathlib import Path
from time import perf_counter, perf_counter_ns

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = {"ring-build": "ring_build", "sector-queries": "sector_queries",
             "cuntz-rho": "cuntz_rho", "cli-session": "cli_session"}
TAIL_LADDER = (99.0, 97.5, 95.0, 90.0, 75.0, 50.0)
SETUP_PROBES = 5
RESIDUAL_FLOOR = 1e-17  # below the 2^-53 rounding unit: reads as an exact result
MAX_LISTED_FAILURES = 20
CAL_REF_MS = 0.4  # about the kernel's time in the fast stretches on that machine
CALIBRATE_EVERY_S = 0.1
SENSITIVITY = 0.7


def calibration_kernel():
    """Fixed interpreter work of the kind the program does: dict, int, float, sort."""
    table = {}
    acc = 0.0
    for i in range(2000):
        key = (i * 7) % 101
        table[key] = table.get(key, 0) + i
        acc += (i & 15) * 0.5
    return len(sorted(table.items(), key=lambda kv: kv[1])) + int(acc)


class Speed:
    """The machine's current speed against the reference speed."""

    def __init__(self):
        self.samples_ms = deque(maxlen=3)
        self.history_ms = []
        self.last = 0.0
        for _ in range(3):
            self.sample()

    def sample(self):
        best = math.inf
        for _ in range(3):  # best of three: an interrupt inflates one run, not all
            t0 = perf_counter_ns()
            calibration_kernel()
            best = min(best, perf_counter_ns() - t0)
        self.samples_ms.append(best / 1e6)
        self.history_ms.append(best / 1e6)
        self.last = perf_counter()

    def factor(self) -> float:
        """Multiply a measured time by this to get the time at reference speed."""
        if perf_counter() - self.last >= CALIBRATE_EVERY_S:
            self.sample()
        return (CAL_REF_MS / statistics.median(self.samples_ms)) ** SENSITIVITY


def canonical(op) -> bytes:
    return json.dumps(op, sort_keys=True, separators=(",", ":")).encode() + b"\n"


class Stats:
    """Everything one measured phase records."""

    def __init__(self):
        self.latencies_ms = []
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.max_residual = 0.0
        self.rounds = 0
        self.elapsed_s = 0.0
        self.program_s = 0.0
        self.raw_latencies_ms = []
        self.by_kind = {}
        self.hasher = hashlib.sha256()


def execute(wl, ctx, op, stats: Stats, speed: Speed):
    stats.hasher.update(canonical(op))
    stats.attempted += 1
    problem = None
    inp = wl.prepare(ctx, op)
    before = speed.factor()
    t0 = perf_counter_ns()
    try:
        out = wl.call(ctx, inp)
    except Exception as exc:  # an op that raises counts as failed, the run goes on
        problem = f"raised {type(exc).__name__}: {exc}"
    lat_ns = perf_counter_ns() - t0
    factor = (before + speed.factor()) / 2
    if problem is None:
        try:
            residual, problem = wl.check(ctx, inp, out)
        except Exception as exc:
            residual, problem = None, f"check raised {type(exc).__name__}: {exc}"
        if residual is not None:
            stats.max_residual = max(stats.max_residual, residual)
    stats.raw_latencies_ms.append(lat_ns / 1e6)
    stats.latencies_ms.append(lat_ns / 1e6 * factor)
    stats.by_kind.setdefault(op["kind"], []).append(lat_ns / 1e6 * factor)
    stats.program_s += lat_ns / 1e9 * factor
    if problem is not None:
        stats.failed += 1
        if len(stats.failures) < MAX_LISTED_FAILURES:
            stats.failures.append({"op": op, "problem": problem[:500]})


def measure(wl, ctx, seed: int, speed: Speed, seconds: float = 0.0, rounds: int = 0) -> Stats:
    """Once-per-run ops, then whole rounds until ``seconds`` have passed and
    at least ``rounds`` rounds are done."""
    stats = Stats()
    start = perf_counter()
    for op in wl.once(seed):
        execute(wl, ctx, op, stats, speed)
    while True:
        for op in wl.round_ops(seed, stats.rounds):
            execute(wl, ctx, op, stats, speed)
        stats.rounds += 1
        stats.elapsed_s = perf_counter() - start
        if stats.elapsed_s >= seconds and stats.rounds >= rounds:
            return stats


def op_list_hash(wl, seed: int, rounds: int) -> str:
    """Hash of the op list a run with ``rounds`` rounds executes."""
    h = hashlib.sha256()
    for op in wl.once(seed):
        h.update(canonical(op))
    for r in range(rounds):
        for op in wl.round_ops(seed, r):
            h.update(canonical(op))
    return h.hexdigest()


def percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(latencies, preferred: float):
    """(percentile, value): the workload's percentile, lowered until ten samples lie beyond it."""
    values = sorted(latencies)
    for pct in TAIL_LADDER:
        if pct <= preferred and len(values) * (100.0 - pct) / 100.0 >= 10:
            return pct, percentile(values, pct)
    return 50.0, percentile(values, 50.0)


def residual_digits(max_residual: float) -> float:
    return -math.log10(max(max_residual, RESIDUAL_FLOOR))


# ---------------------------------------------------------------------------
# fresh-interpreter probes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_seconds(workload: str, speed: Speed):
    """Fresh interpreter to the end of the workload's set-up, SETUP_PROBES times.

    Returns (times at reference speed, raw times).
    """
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        before = speed.factor()
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "probe.py"), workload],
                              env=child_env(), capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
        raw.append(float(proc.stdout.split()[-1]) - t0)
        scaled.append(raw[-1] * (before + speed.factor()) / 2)
    return scaled, raw


def import_ms(speed: Speed) -> list:
    """Wall time of a fresh ``python -c "import sectorwb.cli"`` at reference speed."""
    out = []
    for _ in range(SETUP_PROBES):
        before = speed.factor()
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import sectorwb.cli"], env=child_env(),
                       check=True, capture_output=True, timeout=120)
        out.append((perf_counter() - t0) * 1e3 * (before + speed.factor()) / 2)
    return out


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# provenance


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git() -> dict:
    """Commit and dirty flag when the checkout is a git work tree, else nulls."""
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": None, "dirty": None}
    if head.returncode != 0:
        return {"commit": None, "dirty": None}
    return {"commit": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "sectorwb").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _numpy_version() -> str:
    from importlib import metadata
    try:
        return metadata.version("numpy")
    except metadata.PackageNotFoundError:
        import numpy
        return numpy.__version__


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count()


def provenance(seed: int, sizes: dict, usable: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "cpu_model": _cpu_model(),
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        **_git(),
        "source_sha256": _source_sha256(),
        "seed": seed,
        "sizes": sizes,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def emit(report: dict, correct: bool, attempted: int, failed: int, metrics: dict):
    """Print the report line, then the result line the contract reads last."""
    print(json.dumps({"report": report}, sort_keys=True, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    sys.stdout.flush()
