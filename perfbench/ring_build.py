"""ring-build: construct, serialise, load and validate a stream of rings.

A round is a seeded permutation of every ring definition: su2_k (k = 4..40),
the group rings Z/n (n = 4..40), Tambara-Yamagami TY(Z/n) (n = 3..32, with
d(m) = sqrt(n)) and the six fixed catalog rings, so within a round each
parameter is drawn once.  After every eighth ring of a family, in parameter
order, and once among the catalog rings comes a corrupted copy with one
multiplicity off by one; it must fail with ``RingValidationError``.  Each op
builds the ring, writes it with ``ring_to_dict``, runs ``catalog.load``
(construct and validate), ``pf_dimensions`` and ``check_multiplicity_bound``,
and compares the dimensions with the closed form.  The largest rings set the
tail, because ``validate_ring`` grows with the cube of the label count.
Once per run the classification and exclusion checks run and every case must
pass.
"""

from __future__ import annotations

import json
import os
import random

import refs
from sectorwb import catalog, classify, fusion

NAME = "ring-build"
TAIL_PCT = 90.0
TRACE_ROUNDS = 1
IN_PROCESS = True
FAMILIES = {"su2": range(4, 41), "zn": range(4, 41), "ty": range(3, 33)}
CORRUPT_EVERY = 8
PF_TOL = 1e-9


def sizes() -> dict:
    return {"families": {f: [r.start, r.stop - 1] for f, r in FAMILIES.items()},
            "catalog": sorted(refs.CATALOG), "corrupt_every": CORRUPT_EVERY}


def setup(tracer=None) -> dict:
    workdir = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           ".perfbench-work")
    os.makedirs(workdir, exist_ok=True)
    return {"path": os.path.join(workdir, f"ring-{os.getpid()}.json"), "pf_max_err": 0.0}


def once(seed):
    return [{"kind": "classify"}]


def round_ops(seed, r):
    rng = random.Random(f"{NAME}/{seed}/round{r}")
    defs = []
    for family, values in FAMILIES.items():
        for i, n in enumerate(values, 1):
            defs.append({"kind": "ring", "family": family, "n": n,
                         "twice": rng.randrange(1, 3)})
            if i % CORRUPT_EVERY == 0:
                defs.append({"kind": "ring", "family": family, "n": n,
                             "corrupt": rng.randrange(1 << 30)})
    keys = sorted(refs.CATALOG)
    for key in keys:
        defs.append({"kind": "ring", "family": "catalog", "key": key,
                     "twice": rng.randrange(1, 3)})
    defs.append({"kind": "ring", "family": "catalog", "key": rng.choice(keys),
                 "corrupt": rng.randrange(1 << 30)})
    rng.shuffle(defs)
    return defs


def _corrupt(doc, pick):
    """Raise one multiplicity N(i,j,k), i != j, by one: a Frobenius partner now differs."""
    cells = sorted((key, k) for key, row in doc["tensor"].items()
                   if key.split(",")[0] != key.split(",")[1] for k in row)
    key, k = cells[pick % len(cells)]
    doc["tensor"][key] = dict(doc["tensor"][key])
    doc["tensor"][key][k] += 1


def prepare(ctx, op):
    if op["kind"] == "classify":
        return op
    if op["family"] == "catalog":
        _, _, dims = refs.catalog_ref(op["key"])
        return {**op, "dims": dims, "square": refs.CATALOG[op["key"]][3]}
    data = refs.ring_family(op["family"], op["n"])
    if "corrupt" in op:
        _corrupt(data, op["corrupt"])
    tensor = {tuple(key.split(",")): row for key, row in data.pop("tensor").items()}
    return {**op, **data, "tensor": tensor}


def call(ctx, inp):
    if inp["kind"] == "classify":
        return classify.run_all() + classify.run_exclusion_checks()
    if inp["family"] == "catalog":
        ring = catalog.builtin(inp["key"])
    else:
        ring = fusion.FusionRing(inp["name"], tuple(inp["labels"]), inp["unit"],
                                 inp["dual"], inp["tensor"])
    doc = catalog.ring_to_dict(ring)
    if "corrupt" in inp and inp["family"] == "catalog":
        _corrupt(doc, inp["corrupt"])
    with open(ctx["path"], "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    try:
        loaded = catalog.load(ctx["path"])
    except catalog.RingValidationError as exc:
        return {"rejected": exc}
    if "corrupt" in inp:
        return {"accepted": loaded}
    decomposition = {lab: inp["twice"] * n for lab, n in inp["square"].items()}
    return {"dims": fusion.pf_dimensions(loaded),
            "bound": fusion.check_multiplicity_bound(loaded, decomposition)}


def check(ctx, inp, out):
    if inp["kind"] == "classify":
        bad = [r.case_id for r in out if not r.passed]
        return None, (f"classification cases failed: {bad}" if bad else None)
    if "corrupt" in inp:
        return None, (None if "rejected" in out else "corrupted ring was accepted")
    if "rejected" in out:
        return None, f"valid ring rejected: {out['rejected'].report[:3]}"
    ref = inp["dims"]
    got = out["dims"]
    if sorted(got) != sorted(ref):
        return None, f"dimension labels {sorted(got)} != {sorted(ref)}"
    err = max(abs(got[lab] - d) / d for lab, d in ref.items())
    ctx["pf_max_err"] = max(ctx["pf_max_err"], err)
    want = all(inp["twice"] * n <= ref[lab] + PF_TOL for lab, n in inp["square"].items())
    if out["bound"] != want:
        return err, f"check_multiplicity_bound returned {out['bound']}, expected {want}"
    return err, (None if err < PF_TOL else f"PF dimension error {err:.3g}")


def teardown(ctx):
    try:
        os.remove(ctx["path"])
        os.rmdir(os.path.dirname(ctx["path"]))
    except OSError:
        pass
