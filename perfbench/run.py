"""sector-workbench benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from its
``src`` directory.  Prints one report line (provenance, op-list hash, sample
counts, failures) and, last, the result line with the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``).  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import os
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
from harness import metric  # noqa: E402

CLI_FAMILIES = ("catalog", "validate", "dims", "decompose", "hom", "angle", "wzw",
                "haagerup", "cuntz", "classify")
ANGLE_FUNCTIONS = ("angle_cocommuting", "angle_group", "angle_candidates",
                   "t_inner_roots", "angle_bound")

PER_LAYER = (
    [("catalog.builtin.calls", "count"), ("catalog.builtin.self_ms", "ms"),
     ("catalog.load.self_ms", "ms"), ("catalog.ring_from_dict.self_ms", "ms"),
     ("fusion.FusionRing.self_ms", "ms"),
     ("fusion.validate_ring.calls", "count"), ("fusion.validate_ring.self_ms", "ms"),
     ("fusion.validate_ring.p50_us", "us"),
     ("fusion.pf_dimensions.calls", "count"), ("fusion.pf_dimensions.self_ms", "ms"),
     ("fusion.pf_dimensions.max_err", "1"),
     ("fusion.decompose.calls", "count"), ("fusion.decompose.self_ms", "ms"),
     ("fusion.decompose.p50_us", "us"),
     ("fusion.hom_dim.calls", "count"), ("fusion.hom_dim.self_ms", "ms"),
     ("wzw.q6j.calls", "count"), ("wzw.q6j.self_ms", "ms"),
     ("wzw.su2k_modular.calls", "count"), ("wzw.su2k_modular.self_ms", "ms")]
    + [(f"angles.{fn}.self_ms", "ms") for fn in ANGLE_FUNCTIONS]
    + [("scalar.QuadExt.calls", "count"), ("scalar.QuadExt.self_ms", "ms"),
       ("cuntz.rho_apply.calls", "count"), ("cuntz.rho_apply.self_ms", "ms"),
       ("cuntz.rho_apply.terms_out", "count"),
       ("cuntz.normalize.calls", "count"), ("cuntz.normalize.self_ms", "ms"),
       ("cuntz.normalize.terms_in", "count"), ("cuntz.normalize.terms_out", "count"),
       ("cuntz.normalize.keep_ratio", "1"),
       ("cuntz.residual.self_ms", "ms"), ("cuntz.verify_haagerup_relations.self_ms", "ms"),
       ("classify.run_all.self_ms", "ms"), ("classify.run_exclusion_checks.self_ms", "ms"),
       ("cli.import_ms", "ms")]
    + [(f"cli.{family}.wall_ms", "ms") for family in CLI_FAMILIES]
    + [("trace.overhead_pct", "%")]
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_workload(name: str):
    if not (harness.SRC / "sectorwb" / "__init__.py").is_file():
        raise SystemExit(f"error: {harness.SRC / 'sectorwb'} not found; "
                         "run from a checkout of the repository")
    sys.path.insert(0, str(harness.SRC))
    return importlib.import_module(harness.WORKLOADS[name])


def phase_report(stats: harness.Stats, wl) -> dict:
    pct, value = harness.tail(stats.latencies_ms, wl.TAIL_PCT)
    raw = sorted(stats.raw_latencies_ms)
    return {
        "rounds": stats.rounds,
        "samples": len(stats.latencies_ms),
        "elapsed_s": stats.elapsed_s,
        "program_s": stats.program_s,
        "ops_per_s": verified_per_s(stats),
        "op_p50_ms": statistics.median(stats.latencies_ms),
        "tail_percentile": pct,
        "tail_samples_beyond": sum(1 for x in stats.latencies_ms if x > value),
        "op_tail_ms": value,
        "raw_ms": {"program_s": sum(raw) / 1e3, "op_p50_ms": statistics.median(raw),
                   "op_tail_ms": harness.percentile(raw, pct)},
        "by_kind_p50_ms": {kind: statistics.median(v) for kind, v in sorted(stats.by_kind.items())},
        "fail_ratio": stats.failed / stats.attempted,
        "max_residual": stats.max_residual,
        "op_list_sha256": stats.hasher.hexdigest(),
        "failures": stats.failures,
    }


def verified_per_s(stats: harness.Stats) -> float:
    return (stats.attempted - stats.failed) / stats.program_s


def untraced(wl, args):
    speed = harness.Speed()
    setup, setup_raw = harness.setup_seconds(args.workload, speed)
    ctx = wl.setup()
    try:
        stats = harness.measure(wl, ctx, args.seed, speed, seconds=args.seconds)
    finally:
        wl.teardown(ctx)
    phase = phase_report(stats, wl)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "ops_per_s": metric(phase["ops_per_s"], "1/s"),
        "op_p50_ms": metric(phase["op_p50_ms"], "ms"),
        "op_tail_ms": metric(phase["op_tail_ms"], "ms"),
        "peak_rss_mb": metric(harness.peak_rss_mb(children=not wl.IN_PROCESS), "MB"),
        "residual_digits": metric(harness.residual_digits(stats.max_residual), "1"),
    }
    report = {"workload": args.workload, "trace": 0, "setup_samples_s": setup,
              "setup_raw_samples_s": setup_raw, "calibration": calibration(speed),
              "peak_rss_source": "self" if wl.IN_PROCESS else "largest child", **phase}
    return report, stats, metrics


def traced(wl, args):
    """TRACE_ROUNDS rounds untraced, then the same rounds traced.

    A fixed number of rounds makes the per-layer counts repeat for a seed.
    """
    from tracer import Tracer

    speed = harness.Speed()
    plain_ctx = wl.setup()
    try:
        plain = harness.measure(wl, plain_ctx, args.seed, speed, rounds=wl.TRACE_ROUNDS)
    finally:
        wl.teardown(plain_ctx)
    tracer = Tracer()
    if wl.IN_PROCESS:
        tracer.install()
    try:
        ctx = wl.setup(tracer=tracer)
        try:
            stats = harness.measure(wl, ctx, args.seed, speed, rounds=wl.TRACE_ROUNDS)
        finally:
            wl.teardown(ctx)
    finally:
        tracer.uninstall()
    imports = harness.import_ms(speed)
    plain_rate = verified_per_s(plain)
    overhead = 100.0 * (1.0 - verified_per_s(stats) / plain_rate) if plain_rate else 0.0
    values = {}
    for name, unit in PER_LAYER:
        if name == "cli.import_ms":
            value = statistics.median(imports)
        elif name == "trace.overhead_pct":
            value = overhead
        elif name.startswith("cli."):
            walls = plain_ctx.get("family_wall_ms", {}).get(name.split(".")[1], [])
            value = statistics.median(walls) if walls else 0.0
        else:
            value = layer_value(name, tracer, ctx)
        values[name] = metric(value, unit)
    report = {
        "workload": args.workload, "trace": 1,
        "untraced": phase_report(plain, wl), "traced": phase_report(stats, wl),
        "tracing_overhead_pct": overhead,
        "waits": "none recorded: one caller and nothing concurrent, so no layer waits on another",
        "layers": {name: {"calls": tracer.calls[name], "self_ms": tracer.self_ns[name] / 1e6}
                   for name in sorted(tracer.calls) if tracer.calls[name]},
        "counts": tracer.counts,
        "span_p50_ms_by_labels": {name: {n: statistics.median(v) / 1e6 for n, v in sorted(
            sizes.items(), key=lambda kv: int(kv[0]))} for name, sizes in tracer.by_labels.items()},
        "cli_import_samples_ms": imports,
        "calibration": calibration(speed),
        "self_times": "self_ms, spans and cli wall_ms are raw wall time, not scaled",
    }
    merged = harness.Stats()
    for s in (plain, stats):
        merged.attempted += s.attempted
        merged.failed += s.failed
        merged.failures += s.failures
    return report, merged, values


def calibration(speed) -> dict:
    h = sorted(speed.history_ms)
    return {"ref_ms": harness.CAL_REF_MS, "sensitivity": harness.SENSITIVITY,
            "samples": len(h), "min_ms": h[0], "median_ms": statistics.median(h),
            "max_ms": h[-1]}


def layer_value(name: str, tracer, ctx) -> float:
    prefix, kind = name.rsplit(".", 1)
    if kind == "calls":
        return tracer.calls.get(prefix, 0)
    if kind == "self_ms":
        return tracer.self_ns.get(prefix, 0) / 1e6
    if kind == "p50_us":
        spans = tracer.durations.get(prefix)
        return statistics.median(spans) / 1e3 if spans else 0.0
    if kind == "max_err":
        return ctx.get("pf_max_err", 0.0)
    if kind == "keep_ratio":
        seen = tracer.counts.get(prefix + ".terms_in", 0)
        return tracer.counts.get(prefix + ".terms_out", 0) / seen if seen else 0.0
    return tracer.counts.get(name, 0)


def pin_to_one_cpu():
    """Keep this process and the processes it starts on one CPU; returns it.

    Speed differs between CPUs and over time on a shared machine; the
    calibration only describes the CPU it ran on.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = load_workload(args.workload)
    usable = harness.usable_cpus()
    pinned = pin_to_one_cpu()
    run = traced if args.trace else untraced
    report, stats, metrics = run(wl, args)
    # after the run: git would otherwise be the largest child in peak_rss_mb
    report["provenance"] = {**harness.provenance(args.seed, wl.sizes(), usable),
                            "pinned_cpu": pinned}
    harness.emit(report, stats.failed == 0, stats.attempted, stats.failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
