"""Self-tests of the benchmark: ``python3 perfbench/selftest.py``.

* the op generator is deterministic: the same seed gives byte-identical op
  lists, another seed a different one;
* a planted wrong reference makes ops fail, and the failures reach the
  result line (``failed`` > 0, ``correct`` false);
* a tiny run of each workload prints every metric BENCHMARK.json names, with
  its unit, with ``--trace 0`` and with ``--trace 1``.

Tiny runs shrink the workloads through their module constants; the full
workloads are left to run.py.
"""

import contextlib
import importlib
import io
import json
import sys
import unittest
from pathlib import Path
from unittest import mock

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import harness  # noqa: E402
import refs  # noqa: E402
import run  # noqa: E402

WORKLOADS = {name: importlib.import_module(mod) for name, mod in harness.WORKLOADS.items()}
SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


@contextlib.contextmanager
def tiny():
    """Shrink every workload so that one round takes about a second."""
    ring_build, cuntz_rho = WORKLOADS["ring-build"], WORKLOADS["cuntz-rho"]
    cli_session = WORKLOADS["cli-session"]
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(
            ring_build, "FAMILIES", {"su2": range(4, 8), "zn": range(4, 8), "ty": range(3, 7)}))
        stack.enter_context(mock.patch.object(
            cuntz_rho, "CLASSES", {(1, 1): None, (2, 1): 4, (1, 2): 2}))
        stack.enter_context(mock.patch.object(
            cuntz_rho, "once", lambda seed: [{"kind": "verify"}, {"kind": "qsystem"}]))
        stack.enter_context(mock.patch.object(
            cli_session, "_TEMPLATES", (cli_session._dims(10), cli_session._qsystem,
                                        cli_session._normalize, cli_session._ghj)))
        stack.enter_context(mock.patch.object(harness, "SETUP_PROBES", 1))
        yield


def run_once(workload, trace=0):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                         "--trace", str(trace)])
    lines = out.getvalue().splitlines()
    return code, json.loads(lines[-2])["report"], json.loads(lines[-1])


class Generator(unittest.TestCase):
    def test_same_seed_same_ops(self):
        for name, wl in WORKLOADS.items():
            with self.subTest(workload=name):
                ops = [harness.canonical(op) for op in wl.once(3)]
                ops += [harness.canonical(op) for r in range(3) for op in wl.round_ops(3, r)]
                again = [harness.canonical(op) for op in wl.once(3)]
                again += [harness.canonical(op) for r in range(3) for op in wl.round_ops(3, r)]
                self.assertEqual(ops, again)
                self.assertEqual(harness.op_list_hash(wl, 3, 3), harness.op_list_hash(wl, 3, 3))
                self.assertNotEqual(harness.op_list_hash(wl, 3, 3), harness.op_list_hash(wl, 4, 3))


class PlantedReference(unittest.TestCase):
    def test_wrong_reference_is_counted(self):
        true_dim = refs.su2_dim
        planted = {
            "ring-build": mock.patch.object(refs, "su2_dim", lambda k, i: true_dim(k, i) * 1.001),
            "sector-queries": mock.patch.object(refs, "su2_dim",
                                                lambda k, i: true_dim(k, i) * 1.001),
            "cuntz-rho": mock.patch.object(WORKLOADS["cuntz-rho"], "HAAGERUP_D",
                                           refs.HAAGERUP_D * 1.001),
            "cli-session": mock.patch.object(refs, "su2_dim", lambda k, i: true_dim(k, i) * 1.001),
        }
        for name, patch in planted.items():
            with self.subTest(workload=name), tiny(), patch:
                code, report, result = run_once(name)
                self.assertEqual(code, 0)
                self.assertGreater(result["failed"], 0)
                self.assertFalse(result["correct"])
                self.assertAlmostEqual(report["fail_ratio"], result["failed"] / result["attempted"])


class TinyRun(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for name in WORKLOADS:
                with self.subTest(workload=name, trace=trace), tiny():
                    code, report, result = run_once(name, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], report)
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, want)
                    self.assertIn("provenance", report)


if __name__ == "__main__":
    unittest.main()
