"""sector-queries: the read path on rings built once at set-up.

Set-up builds haagerup_even, e6_even, d6_even, s4_rep, a4_rep, d6aff_even
and su2 at k = 10 and k = 20.  A round then holds, in seeded order:

* per ring, two ``decompose`` ops on sums of one to three words of length
  1-12 with coefficients, checked by dimension conservation
  sum n_i d_i = sum coeff * prod d(label) against the closed-form dimensions
  and, on su2, against a Verlinde product built from ``wzw.su2k_modular``;
* per ring, one ``hom_dim`` pair checked by Frobenius reciprocity
  hom(x*y, z) = hom(x, z*dual(y));
* one full ``q6j`` recoupling matrix at each m in M_VALUES for seeded
  (j1, j2, j3, j), checked for orthogonality; the triads are cut at spin sum
  2m - 2, the level of the half-power quantum integers, and
  j1 + j2 + j3 + j <= 2m - 2 keeps every q-factorial index in range;
* each angle formula once, checked against its closed form, and QuadExt
  field identities, checked exactly.

Fusion work here is sparse lookups on small prebuilt rings, not validation,
so a change that speeds up ring-build by another representation shows here.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

import refs
from sectorwb import angles, catalog, fusion, wzw
from sectorwb.scalar import QuadExt

NAME = "sector-queries"
TAIL_PCT = 97.5  # p99 of sub-millisecond ops measured host bursts (spread 0.28 over ten seeds)
TRACE_ROUNDS = 100
IN_PROCESS = True
RINGS = (("haagerup_even", None), ("e6_even", None), ("d6_even", None), ("s4_rep", None),
         ("a4_rep", None), ("d6aff_even", None), ("su2", 10), ("su2", 20))
M_BLOCKS = (range(3, 10), range(10, 17), range(17, 24), range(24, 31))
DECOMPOSE_PER_RING, HOM_PER_RING = 6, 3
TOL = 1e-9
HAAGERUP_D = QuadExt(Fraction(3, 2), Fraction(1, 2), 13)


def sizes() -> dict:
    return {"rings": [f"{k}" if n is None else f"{k}_{n}" for k, n in RINGS],
            "word_length": [1, 12], "q6j_m_blocks": [[b.start, b.stop - 1] for b in M_BLOCKS],
            "per_round": {"decompose": DECOMPOSE_PER_RING * len(RINGS),
                          "hom": HOM_PER_RING * len(RINGS), "q6j": len(M_BLOCKS),
                          "angle": 4, "quad": 2}}


def setup(tracer=None) -> dict:
    return {f"{k}" if n is None else f"{k}_{n}": catalog.builtin(k, n) for k, n in RINGS}


def teardown(ctx):
    pass


def once(seed):
    return []


def _word(rng, labels, lo, hi):
    return [rng.choice(labels) for _ in range(rng.randint(lo, hi))]


def _expr(rng, labels, terms, lo, hi):
    return [[rng.randint(1, 3), _word(rng, labels, lo, hi)] for _ in range(terms)]


def _spins(rng, m):
    """Seeded (j1, j2, j3, j) with a non-empty recoupling matrix."""
    level = 2 * m - 2
    while True:
        twice = [rng.randint(0, level) for _ in range(4)]
        if sum(twice) > level:
            continue
        spins = [Fraction(x, 2) for x in twice]
        rows, _ = refs.recoupling_indices(m, *spins)
        if rows:
            return [str(s) for s in spins]


def round_ops(seed, r):
    rng = random.Random(f"{NAME}/{seed}/round{r}")
    ops = []
    for key, n in RINGS:
        name = key if n is None else f"{key}_{n}"
        labels = list(refs.catalog_ref(key, n or 0)[0])
        for _ in range(DECOMPOSE_PER_RING):
            ops.append({"kind": "decompose", "ring": name,
                        "expr": _expr(rng, labels, rng.randint(1, 3), 1, 12)})
        for _ in range(HOM_PER_RING):
            ops.append({"kind": "hom", "ring": name,
                        "x": _expr(rng, labels, rng.randint(1, 2), 1, 3),
                        "y": _word(rng, labels, 1, 2),
                        "z": _expr(rng, labels, rng.randint(1, 2), 1, 4)})
    for block in M_BLOCKS:
        m = rng.choice(block)
        ops.append({"kind": "q6j", "m": m, "spins": _spins(rng, m)})
    d = rng.uniform(1.05, 12.0)
    ops.append({"kind": "candidates", "d": d, "s": rng.uniform(-1.0, 1.0)})
    mp = rng.uniform(1.1, 6.0)
    ops.append({"kind": "cocommuting", "pn": mp + rng.uniform(0.01, 6.0), "mp": mp})
    ops.append({"kind": "bound", "pn": rng.uniform(2.05, 12.0)})
    hk, a = rng.randint(1, 6), rng.randint(2, 5)
    b = rng.randint(a, 8)
    ops.append({"kind": "group", "g": hk * a * b, "h": hk * a, "hk": hk})
    for _ in range(2):
        m = rng.choice((2, 3, 5, 13))
        ops.append({"kind": "quad", "m": m,
                    "x": [f"{rng.randint(-9, 9)}/{rng.randint(1, 6)}" for _ in range(2)],
                    "y": [f"{rng.randint(1, 9)}/{rng.randint(1, 6)}",
                          f"{rng.randint(-9, 9)}/{rng.randint(1, 6)}"]})
    rng.shuffle(ops)
    return ops


def _text(expr):
    return " + ".join("*".join(([] if c == 1 else [str(c)]) + word) for c, word in expr)


def prepare(ctx, op):
    kind = op["kind"]
    if kind == "q6j":
        spins = [Fraction(s) for s in op["spins"]]
        return {**op, "spins": spins, "grid": refs.recoupling_indices(op["m"], *spins)}
    if kind in ("decompose", "hom"):
        key, _, level = op["ring"].partition("_")
        if not level.isdigit():
            key, level = op["ring"], "0"
        _, dual, dims = refs.catalog_ref(key, int(level))
        out = {**op, "dual": dual, "dims": dims, "level": int(level) if key == "su2" else None}
        if kind == "decompose":
            out["text"] = _text(op["expr"])
        else:
            ydual = [dual[lab] for lab in reversed(op["y"])]
            out["xy"] = _text([[c, w + op["y"]] for c, w in op["x"]])
            out["x_text"] = _text(op["x"])
            out["zy"] = _text([[c, w + ydual] for c, w in op["z"]])
            out["z_text"] = _text(op["z"])
        return out
    if kind == "quad":
        return {**op, "x": QuadExt(Fraction(op["x"][0]), Fraction(op["x"][1]), op["m"]),
                "y": QuadExt(Fraction(op["y"][0]), Fraction(op["y"][1]), op["m"])}
    return op


def _verlinde(md, expr, k):
    """Multiplicities of a sum of words from the S-matrix: N = S diag(prod S_a/S_0) S."""
    S = md.S
    total = np.zeros(k + 1)
    for coeff, word in expr:
        eig = np.ones(k + 1)
        for lab in word:
            eig *= S[int(lab[1:])] / S[0]
        total += coeff * (S @ (eig * S[0]))
    return total


def call(ctx, inp):
    kind = inp["kind"]
    if kind == "decompose":
        ring = ctx[inp["ring"]]
        dec = fusion.decompose(ring, inp["text"])
        if inp["level"] is None:
            return dec, None
        md = wzw.su2k_modular(inp["level"])
        return dec, _verlinde(md, inp["expr"], inp["level"])
    if kind == "hom":
        ring = ctx[inp["ring"]]
        return (fusion.hom_dim(ring, inp["xy"], inp["z_text"]),
                fusion.hom_dim(ring, inp["x_text"], inp["zy"]))
    if kind == "q6j":
        m, (j1, j2, j3, j) = inp["m"], inp["spins"]
        rows, cols = inp["grid"]
        return np.array([[wzw.q6j(wzw.QSixJ(m, j1, j2, x, j3, j, y)).real for y in cols]
                         for x in rows])
    if kind == "candidates":
        return angles.angle_candidates(inp["d"], inp["s"]), angles.t_inner_roots(inp["d"], inp["s"])
    if kind == "cocommuting":
        return angles.angle_cocommuting(inp["pn"], inp["mp"])
    if kind == "bound":
        return angles.angle_bound(inp["pn"])
    if kind == "group":
        return angles.angle_group(inp["g"], inp["h"], inp["h"], inp["hk"])
    x, y = inp["x"], inp["y"]
    norm = x.a * x.a - x.b * x.b * x.m
    return [
        x * x - 2 * x.a * x + norm,               # minimal polynomial of x
        (x + y) * (x - y) - (x * x - y * y),
        (x * y) / y - x,
        x ** 3 - x * x * x,
        x * x.conj() - norm,
        HAAGERUP_D * HAAGERUP_D - 3 * HAAGERUP_D - 1,
    ]


def check(ctx, inp, out):
    kind = inp["kind"]
    if kind == "decompose":
        dec, verlinde = out
        dims = inp["dims"]
        want = sum(c * math.prod(dims[lab] for lab in word) for c, word in inp["expr"])
        got = sum(n * dims[lab] for lab, n in dec.items())
        err = abs(got - want) / want
        if err >= TOL:
            return err, f"dimension not conserved: {got} != {want}"
        if verlinde is not None:
            vec = np.array([dec.get(f"l{i}", 0) for i in range(inp["level"] + 1)])
            verr = float(np.max(np.abs(verlinde - vec))) / max(1, int(vec.max()))
            err = max(err, verr)
            if verr >= TOL:
                return err, f"decompose disagrees with the Verlinde product by {verr:.3g}"
        return err, None
    if kind == "hom":
        a, b = out
        return 0.0, (None if a == b else f"Frobenius reciprocity broken: {a} != {b}")
    if kind == "q6j":
        err = float(np.max(np.abs(out @ out.T - np.eye(len(out)))))
        return err, (None if err < TOL else f"recoupling matrix not orthogonal: {err:.3g}")
    if kind == "candidates":
        (c1, c2), (r1, r2) = out
        d, s = inp["d"], inp["s"]
        root = math.sqrt((d - 1) ** 2 * s * s + 4 * d)
        err = max(abs(c1.cosine * c2.cosine - 1 / d),
                  abs(c1.cosine - (root + (d - 1) * abs(s)) / (2 * d)),
                  abs(abs(r1 * r2) - 1 / d), abs(r1 + r2 - (d - 1) * s / d),
                  *(abs(a - b) for a, b in zip(sorted((abs(r1), abs(r2))),
                                               sorted((c1.cosine, c2.cosine)))))
        return err, (None if err < TOL else f"candidate identities off by {err:.3g}")
    if kind in ("cocommuting", "group"):
        if kind == "group":
            pn, mp = inp["g"] // inp["h"], inp["h"] // inp["hk"]
        else:
            pn, mp = inp["pn"], inp["mp"]
        if pn == mp:
            return 0.0, (None if out.commuting and not out.angles else "equal indices must commute")
        want = refs.spectrum_from_cosines([math.sqrt((pn - mp) / (mp * (pn - 1)))])
        if len(out.angles) != len(want):
            return None, f"angles {out.angles} != {want}"
        err = max((abs(a - b) for a, b in zip(out.angles, want)), default=0.0)
        return err, (None if err < TOL else f"angle off by {err:.3g}")
    if kind == "bound":
        err = abs(math.cos(out) - 1 / (inp["pn"] - 1))
        return err, (None if err < TOL else f"bound off by {err:.3g}")
    nonzero = [i for i, v in enumerate(out) if v != 0]
    return 0.0, (None if not nonzero else f"exact identities {nonzero} fail")
