"""cuntz-rho: rho^d of seeded Cuntz words, each checked by an identity.

An op applies rho (depth d = 1 or 2) to a word of one to three atoms in S0,
T0, T1, T2 and their adjoints and checks one of two identities of the
Haagerup endomorphism, chosen by the seed:

* exchange: alpha(rho^d(w)) = rho^d(alpha^(2^d)(w));
* adjoint:  rho^d(w*) = rho^d(w)*.

The op passes when the residual (largest normal-form coefficient of the
difference) is below 1e-9.  Cost depends on the word's shape, the pattern of
S0 versus T and of adjoints, far more than on which T it uses: depth-2 ops
on two-atom words take from 0.2 ms to 0.7 s.  So every round holds every
shape once with each identity, and the seed picks the T indices,
coefficients and order.  Three-atom words run at depth 1 only; at depth 2
one op costs seconds.

Every round also computes rho^3 of a seeded T generator x, checked by
rho^3(x) S0 = S0 rho(x) (S0 intertwines id and rho^2, applied to rho(x)).
It costs about as much as the rest of the round, so it sits in every round
rather than once per run: a run's cost then does not depend on how many
rounds fit in it.  S0 is left out of the draw because rho^3(S0) costs a
twentieth of rho^3(T_i).  Once per run: verify_haagerup_relations, and
solve_qsystem against |a|^2 = 1/d and |b|^2 = (d-1)/d.
"""

from __future__ import annotations

import itertools
import random

from refs import HAAGERUP_D
from sectorwb import cuntz

NAME = "cuntz-rho"
TAIL_PCT = 95.0
TRACE_ROUNDS = 1
IN_PROCESS = True
RESIDUAL_TOL = 1e-9
IDENTITIES = ("exchange", "adjoint")
# (atoms, depth); a shape gives each atom as S0 or some T, adjoint or not
CLASSES = ((1, 1), (2, 1), (3, 1), (1, 2), (2, 2))
SHAPE_ATOMS = (("S", False), ("S", True), ("T", False), ("T", True))


def sizes() -> dict:
    return {"classes": [f"len{n}_depth{d}" for n, d in CLASSES],
            "per_class": "every shape with each identity", "rho3_generators": ["T0", "T1", "T2"]}


def setup(tracer=None) -> dict:
    return {}


def teardown(ctx):
    pass


def once(seed):
    return [{"kind": "verify"}, {"kind": "qsystem"}]


def _atom(rng, shape):
    kind, adj = shape
    return [0 if kind == "S" else rng.randrange(1, 4), adj]


def round_ops(seed, r):
    rng = random.Random(f"{NAME}/{seed}/round{r}")
    ops = [{"kind": "rho3", "gen": rng.randrange(1, 4)}]
    for n, depth in CLASSES:
        for shape in itertools.product(SHAPE_ATOMS, repeat=n):
            for identity in IDENTITIES:
                word = [_atom(rng, atom) for atom in shape]
                coeff = [rng.choice((1, -1, 2, 0.5)), rng.choice((0, 1, -0.5))]
                ops.append({"kind": "word", "word": word, "depth": depth,
                            "identity": identity, "coeff": coeff})
    rng.shuffle(ops)
    return ops


def prepare(ctx, op):
    if op["kind"] != "word":
        return op
    word = tuple((g, adj) for g, adj in op["word"])
    return {**op, "expr": cuntz.CuntzExpr({word: complex(*op["coeff"])})}


def _rho(e, depth):
    for _ in range(depth):
        e = cuntz.rho_apply(e)
    return e


def call(ctx, inp):
    kind = inp["kind"]
    if kind == "verify":
        return cuntz.verify_haagerup_relations()
    if kind == "qsystem":
        return cuntz.solve_qsystem()
    if kind == "rho3":
        x = cuntz.gen_expr(inp["gen"])
        s0 = cuntz.gen_expr(0)
        return cuntz.residual(_rho(x, 3) * s0 - s0 * cuntz.rho_apply(x))
    e, d = inp["expr"], inp["depth"]
    if inp["identity"] == "exchange":
        lhs = cuntz.alpha_apply(_rho(e, d))
        rhs = _rho(cuntz.alpha_apply(e, shift=(2 * 2 ** d) % 3), d)
    else:
        lhs = _rho(e.adjoint(), d)
        rhs = _rho(e, d).adjoint()
    return cuntz.residual(lhs - rhs)


def check(ctx, inp, out):
    kind = inp["kind"]
    if kind == "verify":
        worst = max(c.residual for c in out.checks)
        return worst, (None if out.all_pass and worst < RESIDUAL_TOL
                       else f"relations failed: {[c.name for c in out.checks if not c.passed]}")
    if kind == "qsystem":
        s1, s2 = out
        err = max(abs(abs(s1.a) ** 2 - 1 / HAAGERUP_D),
                  abs(abs(s1.b) ** 2 - (HAAGERUP_D - 1) / HAAGERUP_D),
                  abs(s1.a + s2.a), abs(s1.b + s2.b))
        return err, (None if err < RESIDUAL_TOL else f"Q-system coefficients off by {err:.3g}")
    return out, (None if out < RESIDUAL_TOL else f"residual {out:.3g}")
