"""cli-session: one caller runs ``swb`` processes one after another.

A round holds two command lines of each template below, in seeded order,
with seeded parameters; half of them run with ``--json``.  Every command
must exit 0, and its output is checked against golden values: closed-form
dimensions and angles, the su2 fusion rule, |6j| = 1 when j3 = 0, the
Q-system moduli, the Cuntz relations X^*Y = delta_XY, and passing
classification cases and exclusion checks.

This is the only workload that pays process start, the numpy import and
argparse dispatch, so import-time and CLI changes show here and library-only
changes should not.  ``swb`` is run the way its console script runs it:
``python -c "from sectorwb.cli import main; sys.exit(main())"``.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import harness
import refs

NAME = "cli-session"
TAIL_PCT = 75.0
TRACE_ROUNDS = 1
IN_PROCESS = False
SWB = [sys.executable, "-c", "import sys; from sectorwb.cli import main; sys.exit(main())"]
TRACED_SWB = [sys.executable, str(harness.BENCH_DIR / "traced_swb.py")]
CATALOG_KEYS = ("su2", "d6_even", "e6_even", "s4_rep", "a4_rep", "d6aff_even", "haagerup_even")
GEN = ("S0", "T0", "T1", "T2")
CASE_IDS = ("a5a3", "d6a4", "a7a7", "d6affa3", "e6affd4", "e7affa5", "e7affe7aff")
TOL = 1e-9
PER_ROUND = 2  # command lines per template and round: 42 commands, about 13 s


def sizes() -> dict:
    return {"commands_per_round": PER_ROUND * len(_TEMPLATES), "dims_levels": [10, 20, 30],
            "json_share": 0.5}


def setup(tracer=None) -> dict:
    from sectorwb import cli
    cli.build_parser()
    workdir = harness.ROOT / ".perfbench-work"
    return {"env": harness.child_env(), "tracer": tracer, "family_wall_ms": {},
            "workdir": workdir, "trace_path": workdir / f"swb-trace-{os.getpid()}.json"}


def teardown(ctx):
    try:
        os.remove(ctx["trace_path"])
    except OSError:
        pass
    try:
        os.rmdir(ctx["workdir"])
    except OSError:
        pass


def once(seed):
    return []


# -- command templates: rng -> (argv, golden) ---------------------------------


def _catalog(rng):
    return ["catalog", "list"], {}


def _validate(rng):
    key = rng.choice(CATALOG_KEYS)
    if key == "su2":
        k = rng.randint(2, 12)
        return ["validate", "su2", "--k", str(k)], {"name": f"su2_{k}"}
    return ["validate", key], {"name": key}


def _dims(level):
    def make(rng):
        return ["dims", "su2", "--k", str(level)], {"k": level}
    return make


def _word(rng, labels, lo, hi):
    return [rng.choice(labels) for _ in range(rng.randint(lo, hi))]


def _text(expr):
    return " + ".join("*".join(([] if c == 1 else [str(c)]) + w) for c, w in expr)


def _decompose(rng):
    key = rng.choice(CATALOG_KEYS[1:])
    labels = list(refs.CATALOG[key][0])
    expr = [[rng.randint(1, 3), _word(rng, labels, 1, 6)] for _ in range(rng.randint(1, 2))]
    return ["decompose", key, _text(expr)], {"key": key, "expr": expr}


def _hom(rng):
    k = rng.randint(2, 12)
    labels = [f"l{i}" for i in range(k + 1)]
    x = [[rng.randint(1, 2), _word(rng, labels, 1, 4)] for _ in range(rng.randint(1, 2))]
    y = [[rng.randint(1, 2), _word(rng, labels, 1, 4)] for _ in range(rng.randint(1, 2))]
    return ["hom", "su2", _text(x), _text(y), "--k", str(k)], {"k": k, "x": x, "y": y}


def _cocommuting(rng):
    mp = round(rng.uniform(1.1, 6.0), 6)
    pn = round(mp + rng.uniform(0.01, 6.0), 6)
    return ["angle", "cocommuting", "--pn", repr(pn), "--mp", repr(mp)], {"pn": pn, "mp": mp}


def _group(rng):
    hk, a = rng.randint(1, 6), rng.randint(2, 5)
    b = rng.randint(a + 1, 8)
    h = hk * a
    return (["angle", "group", "--g", str(h * b), "--h", str(h), "--k", str(h), "--hk", str(hk)],
            {"pn": b, "mp": a})


def _candidates(rng):
    d, s = round(rng.uniform(1.05, 12.0), 6), round(rng.uniform(-0.99, 0.99), 6)
    return ["angle", "candidates", "--d", repr(d), "--s", repr(s)], {"d": d, "s": s}


def _bound(rng):
    pn = round(rng.uniform(2.05, 12.0), 6)
    return ["angle", "bound", "--pn", repr(pn)], {"pn": pn}


def _ghj(rng):
    graph = rng.choice(["E6", "E7", "E8", f"A{rng.randint(2, 12)}", f"D{2 * rng.randint(2, 8)}"])
    return ["wzw", "ghj", "--graph", graph], {"angles": refs.ghj_angles(graph)}


def _sixj(rng):
    m = rng.randint(3, 12)
    level = 2 * m - 2
    while True:
        j1, j2, j12 = (Fraction(rng.randint(0, level), 2) for _ in range(3))
        if refs.admissible(j1, j2, j12, level):
            break
    spins = ",".join(str(s) for s in (j1, j2, j12, 0, j12, j2))
    return ["wzw", "6j", "--m", str(m), "--spins", spins], {}


def _spectrum(rng):
    k = rng.randint(3, 30)
    J = sorted({0, *rng.sample(range(1, k + 1), rng.randint(1, 3))})
    want = refs.spectrum_from_cosines(min(1.0, refs.monodromy_cos(k, j)) for j in J)
    return (["wzw", "spectrum", "--k", str(k), "--i0", "1", "--J", ",".join(map(str, J))],
            {"angles": want})


def _verify(rng):
    return ["haagerup", "verify"], {}


def _qsystem(rng):
    return ["haagerup", "qsystem"], {}


def _normalize(rng):
    terms, want = [], 0
    for _ in range(rng.randint(1, 4)):
        c, x, y = rng.randint(1, 5), rng.choice(GEN), rng.choice(GEN)
        terms.append(f"{c}*{x}^*{y}")
        want += c if x == y else 0
    if rng.randrange(2):
        terms.append("S0*S0^ + T0*T0^ + T1*T1^ + T2*T2^")  # completeness: 1
        want += 1
    return ["cuntz", "normalize", " + ".join(terms)], {"value": want}


def _asymptotic(rng):
    n = rng.randint(3, 40)
    base = math.cos(math.pi / (n + 1))
    want = refs.spectrum_from_cosines(math.cos((j + 1) * math.pi / (n + 1)) / base
                                      for j in range(1, (n - 2) // 2 + 1))
    return ["wzw", "asymptotic", "--n", str(n)], {"angles": want}


def _case(rng):
    return ["classify", "--case", rng.choice(CASE_IDS)], {"total": 1}


def _classify_all(rng):
    return ["classify", "--all"], {"total": 7}


def _exclusions(rng):
    return ["classify", "--exclusions"], {"total": 4}


_TEMPLATES = (_catalog, _validate, _dims(10), _dims(20), _dims(30), _decompose, _hom,
              _cocommuting, _group, _candidates, _bound, _ghj, _sixj, _spectrum, _asymptotic,
              _verify, _qsystem, _normalize, _case, _classify_all, _exclusions)


def round_ops(seed, r):
    rng = random.Random(f"{NAME}/{seed}/round{r}")
    ops = []
    for make in _TEMPLATES * PER_ROUND:
        argv, golden = make(rng)
        ops.append({"kind": argv[0], "argv": argv, "golden": golden})
    with_json = set(rng.sample(range(len(ops)), len(ops) // 2))
    for i, op in enumerate(ops):
        op["json"] = i in with_json
    rng.shuffle(ops)
    return ops


def prepare(ctx, op):
    return op


def call(ctx, inp):
    argv = (["--json"] if inp["json"] else []) + inp["argv"]
    tracer = ctx["tracer"]
    if tracer is not None:
        ctx["workdir"].mkdir(exist_ok=True)
        cmd = TRACED_SWB + [str(ctx["trace_path"])] + argv
    else:
        cmd = SWB + argv
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=ctx["env"], capture_output=True, text=True, timeout=120)
    wall = (time.perf_counter() - t0) * 1e3
    ctx["family_wall_ms"].setdefault(inp["kind"], []).append(wall)
    if tracer is not None:
        with open(ctx["trace_path"], encoding="utf-8") as fh:
            tracer.merge(json.load(fh))
    return proc


# -- checks -------------------------------------------------------------------


def _rel_err(got, want):
    return abs(got - want) / max(1.0, abs(want))


def _lines(text):
    """'label: value' lines as a dict of strings."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _angles_text(stdout):
    return [float(x) for x in re.findall(r"^angle = (\S+) rad", stdout, re.M)]


def check(ctx, inp, proc):
    if proc.returncode != 0:
        return None, f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"
    doc = json.loads(proc.stdout)["results"] if inp["json"] else None
    text = proc.stdout
    g = inp["golden"]
    argv = inp["argv"]
    family = inp["kind"]
    action = argv[1]
    if family == "catalog":
        keys = ([e["key"] for e in doc["entries"]] if doc
                else [line.split()[0] for line in text.splitlines()])
        return 0.0, (None if tuple(keys) == CATALOG_KEYS else f"catalog keys {keys}")
    if family == "validate":
        ok = ((doc["valid"] and doc["ring"] == g["name"]) if doc
              else text.strip() == f"{g['name']}: ok")
        return 0.0, (None if ok else f"validate output {doc or text!r}")
    if family == "dims":
        got = doc["dimensions"] if doc else {k: float(v) for k, v in _lines(text).items()}
        want = refs.catalog_ref("su2", g["k"])[2]
        if sorted(got) != sorted(want):
            return None, f"dimension labels {sorted(got)}"
        err = max(_rel_err(float(got[lab]), d) for lab, d in want.items())
        return err, (None if err < TOL else f"dims off by {err:.3g}")
    if family == "decompose":
        got = doc["decomposition"] if doc else {k: int(v) for k, v in _lines(text).items()}
        dims = refs.CATALOG[g["key"]][2]
        want = sum(c * math.prod(dims[lab] for lab in w) for c, w in g["expr"])
        err = _rel_err(sum(n * dims[lab] for lab, n in got.items()), want)
        return err, (None if err < TOL else f"dimension not conserved: {got}")
    if family == "hom":
        got = doc["hom_dim"] if doc else int(text.strip())
        dx, dy = refs.su2_decompose(g["k"], g["x"]), refs.su2_decompose(g["k"], g["y"])
        want = sum(n * dy.get(l, 0) for l, n in dx.items())
        return 0.0, (None if got == want else f"hom {got} != {want}")
    if family == "angle":
        if action == "candidates":
            cos = ([c["cosine"] for c in doc["candidates"]] if doc else
                   [float(x) for x in re.findall(r"^cosine (\S+):", text, re.M)])
            d, s = g["d"], g["s"]
            root = math.sqrt((d - 1) ** 2 * s * s + 4 * d)
            err = max(_rel_err(cos[0] * cos[1], 1 / d),
                      _rel_err(cos[0], (root + (d - 1) * abs(s)) / (2 * d)))
        elif action == "bound":
            got = doc["angle_radians"] if doc else _angles_text(text)[0]
            err = _rel_err(got, math.acos(1 / (g["pn"] - 1)))
        else:
            got = doc["angles_radians"] if doc else _angles_text(text)
            pn, mp = g["pn"], g["mp"]
            want = refs.spectrum_from_cosines([math.sqrt((pn - mp) / (mp * (pn - 1)))])
            if len(got) != len(want):
                return None, f"angles {got} != {want}"
            err = max(_rel_err(a, b) for a, b in zip(got, want))
        return err, (None if err < TOL else f"angle off by {err:.3g}")
    if family == "wzw":
        if action == "6j":
            value = doc["value"]["re"] if doc else float(text.split("=")[1])
            err = abs(abs(value) - 1.0)
            return err, (None if err < TOL else f"|6j| = {abs(value)} != 1 with j3 = 0")
        got = doc["angles_radians"] if doc else _angles_text(text)
        want = g["angles"]
        if len(got) != len(want):
            return None, f"angles {got} != {want}"
        err = max((_rel_err(a, b) for a, b in zip(got, want)), default=0.0)
        return err, (None if err < TOL else f"spectrum off by {err:.3g}")
    if family == "haagerup":
        if action == "verify":
            if doc:
                worst = max(r["residual"] for r in doc["relations"])
                ok = doc["all_pass"]
            else:
                worst = max(float(x) for x in re.findall(r"residual = (\S+)", text))
                ok = text.strip().endswith("all relations hold")
            return worst, (None if ok and worst < TOL else "relations failed")
        if doc:
            moduli = [(s["abs_a_sq"], s["abs_b_sq"]) for s in doc["solutions"]]
        else:
            moduli = [tuple(map(float, m)) for m in
                      re.findall(r"\|a\|\^2 = (\S+), \|b\|\^2 = (\S+)", text)]
        d = refs.HAAGERUP_D
        err = max(max(_rel_err(a, 1 / d), _rel_err(b, (d - 1) / d)) for a, b in moduli)
        return err, (None if len(moduli) == 2 and err < TOL else f"Q-system moduli {moduli}")
    if family == "cuntz":
        got = doc["normal_form"] if doc else text.strip()
        return 0.0, (None if got == str(g["value"]) else f"normal form {got!r} != {g['value']}")
    if doc:
        passed, total = doc["passed"], doc["total"]
    else:
        passed, total = map(int, re.search(r"^(\d+)/(\d+) passing$", text, re.M).groups())
    ok = passed == total == g["total"]
    return 0.0, (None if ok else f"classify {passed}/{total}, want {g['total']}/{g['total']}")
