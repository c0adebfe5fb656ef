"""Reference data the benchmark checks results against.

Everything here is written out from the mathematics, not taken from
``sectorwb``: closed-form Perron-Frobenius dimensions, fusion tables of the
generated ring families, the textbook squares of the catalog rings, the
monodromy-ratio angles and the level-K admissibility of 6j triads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Tuple

SQRT5 = math.sqrt(5.0)
HAAGERUP_D = (3.0 + math.sqrt(13.0)) / 2.0
GOLDEN = (1.0 + SQRT5) / 2.0

# key -> (labels, dual pairs, closed-form dimensions, x * dual(x) for a generator x)
CATALOG = {
    "d6_even": (("1", "r", "r1", "r2"), {},
                {"1": 1.0, "r": (3.0 + SQRT5) / 2.0, "r1": GOLDEN, "r2": GOLDEN},
                {"1": 1, "r": 1, "r1": 1, "r2": 1}),
    "e6_even": (("1", "a", "e"), {},
                {"1": 1.0, "a": 1.0, "e": 1.0 + math.sqrt(3.0)},
                {"1": 1, "a": 1, "e": 2}),
    "s4_rep": (("1", "a", "e2", "e", "ae"), {},
               {"1": 1.0, "a": 1.0, "e2": 2.0, "e": 3.0, "ae": 3.0},
               {"1": 1, "e2": 1, "e": 1, "ae": 1}),
    "a4_rep": (("1", "w", "w2", "v"), {"w": "w2", "w2": "w"},
               {"1": 1.0, "w": 1.0, "w2": 1.0, "v": 3.0},
               {"1": 1, "w": 1, "w2": 1, "v": 2}),
    "d6aff_even": (("1", "t", "tq", "tp", "x"), {},
                   {"1": 1.0, "t": 1.0, "tq": 1.0, "tp": 1.0, "x": 2.0},
                   {"1": 1, "t": 1, "tq": 1, "tp": 1}),
    "haagerup_even": (("1", "t", "t2", "r", "tr", "t2r"), {"t": "t2", "t2": "t"},
                      {"1": 1.0, "t": 1.0, "t2": 1.0,
                       "r": HAAGERUP_D, "tr": HAAGERUP_D, "t2r": HAAGERUP_D},
                      {"1": 1, "r": 1, "tr": 1, "t2r": 1}),
}


def su2_dim(k: int, i: int) -> float:
    """Quantum dimension sin((i+1) pi/(k+2)) / sin(pi/(k+2))."""
    return math.sin((i + 1) * math.pi / (k + 2)) / math.sin(math.pi / (k + 2))


def su2_rule(k: int, i: int, j: int) -> List[int]:
    """Truncated Clebsch-Gordan rule: the l with l_i * l_j containing l_l."""
    return list(range(abs(i - j), min(i + j, 2 * k - i - j) + 1, 2))


def ring_family(family: str, n: int) -> dict:
    """Ring data in the ``ring_to_dict`` layout plus reference dimensions.

    Families: ``su2`` (level n), ``zn`` (the group ring of Z/n) and ``ty``
    (Tambara-Yamagami over Z/n, with d(m) = sqrt(n)).  The returned dict
    carries ``dims`` (closed form) and ``square`` (x * dual(x) for the
    generator x) next to the ring fields.
    """
    tensor: Dict[Tuple[str, str], Dict[str, int]] = {}
    dual: Dict[str, str] = {}
    if family == "su2":
        labels = [f"l{i}" for i in range(n + 1)]
        for i in range(n + 1):
            for j in range(n + 1):
                tensor[(labels[i], labels[j])] = {f"l{l}": 1 for l in su2_rule(n, i, j)}
        dims = {f"l{i}": su2_dim(n, i) for i in range(n + 1)}
        name, unit, square = f"su2_{n}", "l0", {"l0": 1, "l2": 1}
    elif family in ("zn", "ty"):
        labels = [f"g{i}" for i in range(n)]
        for i in range(n):
            dual[labels[i]] = labels[-i % n]
            for j in range(n):
                tensor[(labels[i], labels[j])] = {labels[(i + j) % n]: 1}
        dims = {lab: 1.0 for lab in labels}
        name, unit, square = f"z{n}", "g0", {"g0": 1}
        if family == "ty":
            for lab in labels:
                tensor[(lab, "m")] = {"m": 1}
                tensor[("m", lab)] = {"m": 1}
            tensor[("m", "m")] = {lab: 1 for lab in labels}
            labels = labels + ["m"]
            dims["m"] = math.sqrt(n)
            name, square = f"ty_z{n}", {lab: 1 for lab in labels[:-1]}
    else:
        raise ValueError(f"unknown ring family {family!r}")
    return {
        "name": name,
        "labels": labels,
        "unit": unit,
        "dual": {a: b for a, b in dual.items() if a != b},
        "tensor": {f"{i},{j}": row for (i, j), row in tensor.items()},
        "dims": dims,
        "square": square,
    }


def catalog_ref(key: str, k: int = 0):
    """(labels, dual map, dims) for a catalog ring; ``su2`` needs its level k."""
    if key == "su2":
        labels = tuple(f"l{i}" for i in range(k + 1))
        return labels, {lab: lab for lab in labels}, {f"l{i}": su2_dim(k, i) for i in range(k + 1)}
    labels, pairs, dims, _ = CATALOG[key]
    return labels, {lab: pairs.get(lab, lab) for lab in labels}, dims


# ---------------------------------------------------------------------------
# angles


def monodromy_cos(k: int, j: int) -> float:
    """|cos((j+1) pi/(k+2))| / cos(pi/(k+2)): the i0 = 1 monodromy ratio."""
    return abs(math.cos((j + 1) * math.pi / (k + 2))) / math.cos(math.pi / (k + 2))


def spectrum_from_cosines(cosines) -> List[float]:
    """Distinct interior angles (0 < a < pi/2), sorted: the endpoints carry no angle."""
    out: List[float] = []
    for a in sorted(math.acos(c) for c in cosines if 1e-9 < c < 1.0 - 1e-9):
        if not out or a - out[-1] >= 1e-9:
            out.append(a)
    return out


# Goodman-de la Harpe-Jones branching data: graph -> (level, J)
GHJ = {"E6": (10, (0, 6)), "E7": (16, (0, 8, 16)), "E8": (28, (0, 10, 18, 28))}


def ghj_angles(graph: str) -> List[float]:
    if graph[0] == "D":
        n = int(graph[1:])
        k, J = 2 * n - 4, (0, 2 * n - 4)
    elif graph[0] == "A":
        k, J = int(graph[1:]) - 1, (0,)
    else:
        k, J = GHJ[graph]
    return spectrum_from_cosines(monodromy_cos(k, j) for j in J)


# ---------------------------------------------------------------------------
# 6j recoupling


def admissible(a: Fraction, b: Fraction, c: Fraction, level: int) -> bool:
    """Triad condition at level K: triangle, integer sum, a + b + c <= K."""
    return abs(a - b) <= c <= a + b and (a + b + c).denominator == 1 and a + b + c <= level


def recoupling_indices(m: int, j1, j2, j3, j) -> Tuple[List[Fraction], List[Fraction]]:
    """Admissible intermediate spins (j12 rows, j23 columns) at q = e^{i pi/m}.

    The workbench's half-power quantum integers put the truncation at level
    2m - 2, so the triads are cut at a spin sum of 2m - 2.
    """
    level = 2 * m - 2
    spins = [Fraction(x, 2) for x in range(2 * level + 1)]
    rows = [x for x in spins if admissible(j1, j2, x, level) and admissible(j3, j, x, level)]
    cols = [y for y in spins if admissible(j2, j3, y, level) and admissible(j1, j, y, level)]
    return rows, cols


def su2_decompose(k: int, expr) -> Dict[int, int]:
    """Multiplicities of a sum of words [[coeff, [labels]], ...] by the su2_k rule."""
    total: Dict[int, int] = {}
    for coeff, word in expr:
        vec = {0: 1}
        for lab in word:
            nxt: Dict[int, int] = {}
            for i, n in vec.items():
                for l in su2_rule(k, i, int(lab[1:])):
                    nxt[l] = nxt.get(l, 0) + n
            vec = nxt
        for l, n in vec.items():
            total[l] = total.get(l, 0) + coeff * n
    return total
