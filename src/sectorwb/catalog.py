"""Built-in fusion rings and file I/O for user-defined ones.

Shipped rings (label conventions are fixed so CLI expressions stay stable):

* ``su2`` (parameter k >= 1): SU(2) level-k Verlinde ring, labels l0..lk.
* ``d6_even``: even sectors of the D6 subfactor: 1, r, r1, r2 with
  d(r) = (3+sqrt(5))/2 and d(r1) = d(r2) = (1+sqrt(5))/2.
* ``e6_even``: even sectors of the E6 subfactor: 1, a, e with a an order-2
  automorphism and d(e) = 1+sqrt(3).
* ``s4_rep``: unitary dual of the symmetric group S4: 1, a (sign), e2
  (2-dim), e (standard 3-dim), ae (their product); the tables match the
  character products of explicit permutation matrices in tests/_oracles.py.
* ``a4_rep``: unitary dual of the alternating group A4: 1, w, w2 (cubic
  characters), v (3-dim); same derivation route.
* ``d6aff_even``: even sectors of the affine-D6 subfactor: Klein four-group
  1, t, tq, tp of automorphisms plus x with d(x) = 2 and
  x^2 = 1 + t + tq + tp.
* ``haagerup_even``: even sectors of the Haagerup subfactor: Z/3 part
  1, t, t2 plus r, tr, t2r with d(r) = (3+sqrt(13))/2, t^3 = 1,
  r*t = t2*r, and r^2 = 1 + r + tr + t2r.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .fusion import FusionRing, validate_ring


class RingFormatError(ValueError):
    """File does not conform to the fusion-ring JSON format."""


class RingValidationError(ValueError):
    """Ring parsed fine but violates the fusion axioms; carries the report."""

    def __init__(self, report: List[str]):
        super().__init__("fusion-ring axioms violated:\n  " + "\n  ".join(report))
        self.report = report


@dataclass(frozen=True)
class CatalogEntry:
    """A built-in ring: ``build()``, or ``build(k)`` when parametrized."""

    key: str
    note: str
    build: Callable[..., FusionRing]
    parametrized: bool = False


def _su2(k: int) -> FusionRing:
    labels = tuple(f"l{i}" for i in range(k + 1))
    tensor = {(labels[i], labels[j]):
              dict.fromkeys(labels[abs(i - j):min(i + j, 2 * k - i - j) + 1:2], 1)
              for i in range(k + 1) for j in range(k + 1)}
    return FusionRing(f"su2_{k}", labels, "l0", {}, tensor)


def _d6_even() -> FusionRing:
    L = ("1", "r", "r1", "r2")
    P = {}
    for x in L:
        P[("1", x)] = {x: 1}
        P[(x, "1")] = {x: 1}
    P[("r", "r")] = {"1": 1, "r": 1, "r1": 1, "r2": 1}
    P[("r", "r1")] = {"r": 1, "r2": 1}
    P[("r1", "r")] = {"r": 1, "r2": 1}
    P[("r", "r2")] = {"r": 1, "r1": 1}
    P[("r2", "r")] = {"r": 1, "r1": 1}
    P[("r1", "r1")] = {"1": 1, "r1": 1}
    P[("r2", "r2")] = {"1": 1, "r2": 1}
    P[("r1", "r2")] = {"r": 1}
    P[("r2", "r1")] = {"r": 1}
    return FusionRing("d6_even", L, "1", {}, P)


def _e6_even() -> FusionRing:
    L = ("1", "a", "e")
    P = {}
    for x in L:
        P[("1", x)] = {x: 1}
        P[(x, "1")] = {x: 1}
    P[("a", "a")] = {"1": 1}
    P[("a", "e")] = {"e": 1}
    P[("e", "a")] = {"e": 1}
    P[("e", "e")] = {"1": 1, "a": 1, "e": 2}
    return FusionRing("e6_even", L, "1", {}, P)


def _s4_rep() -> FusionRing:
    # character-product table for the irreducibles {1, sign, 2-dim, 3-dim, 3-dim'}
    L = ("1", "a", "e2", "e", "ae")
    P = {}
    for x in L:
        P[("1", x)] = {x: 1}
        P[(x, "1")] = {x: 1}
    P[("a", "a")] = {"1": 1}
    P[("a", "e2")] = {"e2": 1}
    P[("e2", "a")] = {"e2": 1}
    P[("a", "e")] = {"ae": 1}
    P[("e", "a")] = {"ae": 1}
    P[("a", "ae")] = {"e": 1}
    P[("ae", "a")] = {"e": 1}
    P[("e2", "e2")] = {"1": 1, "a": 1, "e2": 1}
    P[("e2", "e")] = {"e": 1, "ae": 1}
    P[("e", "e2")] = {"e": 1, "ae": 1}
    P[("e2", "ae")] = {"e": 1, "ae": 1}
    P[("ae", "e2")] = {"e": 1, "ae": 1}
    P[("e", "e")] = {"1": 1, "e2": 1, "e": 1, "ae": 1}
    P[("e", "ae")] = {"a": 1, "e2": 1, "e": 1, "ae": 1}
    P[("ae", "e")] = {"a": 1, "e2": 1, "e": 1, "ae": 1}
    P[("ae", "ae")] = {"1": 1, "e2": 1, "e": 1, "ae": 1}
    return FusionRing("s4_rep", L, "1", {}, P)


def _a4_rep() -> FusionRing:
    L = ("1", "w", "w2", "v")
    P = {}
    for x in L:
        P[("1", x)] = {x: 1}
        P[(x, "1")] = {x: 1}
    P[("w", "w")] = {"w2": 1}
    P[("w", "w2")] = {"1": 1}
    P[("w2", "w")] = {"1": 1}
    P[("w2", "w2")] = {"w": 1}
    P[("w", "v")] = {"v": 1}
    P[("v", "w")] = {"v": 1}
    P[("w2", "v")] = {"v": 1}
    P[("v", "w2")] = {"v": 1}
    P[("v", "v")] = {"1": 1, "w": 1, "w2": 1, "v": 2}
    return FusionRing("a4_rep", L, "1", {"w": "w2", "w2": "w"}, P)


def _d6aff_even() -> FusionRing:
    L = ("1", "t", "tq", "tp", "x")
    klein = {("1", "1"): "1", ("1", "t"): "t", ("1", "tq"): "tq", ("1", "tp"): "tp",
             ("t", "1"): "t", ("t", "t"): "1", ("t", "tq"): "tp", ("t", "tp"): "tq",
             ("tq", "1"): "tq", ("tq", "t"): "tp", ("tq", "tq"): "1", ("tq", "tp"): "t",
             ("tp", "1"): "tp", ("tp", "t"): "tq", ("tp", "tq"): "t", ("tp", "tp"): "1"}
    P = {key: {val: 1} for key, val in klein.items()}
    for g in ("1", "t", "tq", "tp"):
        P[(g, "x")] = {"x": 1}
        P[("x", g)] = {"x": 1}
    P[("x", "x")] = {"1": 1, "t": 1, "tq": 1, "tp": 1}
    return FusionRing("d6aff_even", L, "1", {}, P)


def _haagerup_even() -> FusionRing:
    # Z/3 part t with t^3 = 1; r, tr, t2r self-dual of dimension (3+sqrt(13))/2;
    # r*t = t2*r and (t^i r)(t^j r) = t^(i-j) + r + tr + t2r.
    group = ["1", "t", "t2"]
    refl = ["r", "tr", "t2r"]
    L = tuple(group + refl)

    def tpow(i: int) -> str:
        return group[i % 3]

    def trefl(i: int) -> str:
        return refl[i % 3]

    P: Dict[Tuple[str, str], Dict[str, int]] = {}
    for i in range(3):
        for j in range(3):
            P[(tpow(i), tpow(j))] = {tpow(i + j): 1}
            P[(tpow(i), trefl(j))] = {trefl(i + j): 1}
            P[(trefl(i), tpow(j))] = {trefl(i - j): 1}
            P[(trefl(i), trefl(j))] = {tpow(i - j): 1, "r": 1, "tr": 1, "t2r": 1}
    return FusionRing("haagerup_even", L, "1", {"t": "t2", "t2": "t"}, P)


ENTRIES: Tuple[CatalogEntry, ...] = (
    CatalogEntry("su2", "SU(2) level-k Verlinde ring, labels l0..lk (pass k)", _su2, True),
    CatalogEntry("d6_even", "even sectors of the D6 subfactor", _d6_even),
    CatalogEntry("e6_even", "even sectors of the E6 subfactor", _e6_even),
    CatalogEntry("s4_rep", "unitary dual of the symmetric group S4", _s4_rep),
    CatalogEntry("a4_rep", "unitary dual of the alternating group A4", _a4_rep),
    CatalogEntry("d6aff_even", "even sectors of the affine-D6 subfactor", _d6aff_even),
    CatalogEntry("haagerup_even", "even sectors of the Haagerup subfactor", _haagerup_even),
)


def builtin(key: str, k: Optional[int] = None) -> FusionRing:
    """Return a validated built-in ring; ``su2`` requires the level k >= 1."""
    entry = next((e for e in ENTRIES if e.key == key), None)
    if entry is None:
        raise KeyError(f"unknown catalog key {key!r}")
    if entry.parametrized:
        if k is None or not isinstance(k, int) or k < 1:
            raise ValueError(f"{key} requires an integer level k >= 1")
        ring = entry.build(k)
    else:
        if k is not None:
            raise ValueError(f"{key} takes no level parameter")
        ring = entry.build()
    report = validate_ring(ring)
    if report:  # pragma: no cover - shipped data is valid
        raise RingValidationError(report)
    return ring


def builtin_keys() -> List[str]:
    return [e.key for e in ENTRIES]


# ---------------------------------------------------------------------------
# file format

_ALLOWED_FIELDS = {"name", "labels", "unit", "dual", "tensor"}


def ring_to_dict(ring: FusionRing) -> dict:
    dual = {a: b for a, b in ring.dual.items() if a != b}
    tensor = {f"{i},{j}": dict(row) for (i, j), row in ring.tensor.items()}
    return {
        "name": ring.name,
        "labels": list(ring.labels),
        "unit": ring.unit,
        "dual": dual,
        "tensor": tensor,
    }


def ring_from_dict(doc: dict) -> FusionRing:
    if not isinstance(doc, dict):
        raise RingFormatError("top-level JSON value must be an object")
    unknown = set(doc) - _ALLOWED_FIELDS
    if unknown:
        raise RingFormatError(f"unknown fields: {sorted(unknown)}")
    missing = {"name", "labels", "unit", "tensor"} - set(doc)
    if missing:
        raise RingFormatError(f"missing fields: {sorted(missing)}")
    if not isinstance(doc["labels"], list) or not all(isinstance(x, str) for x in doc["labels"]):
        raise RingFormatError("labels must be an array of strings")
    dual = doc.get("dual", {})
    if not isinstance(dual, dict):
        raise RingFormatError("dual must be an object label->label")
    tensor_raw = doc["tensor"]
    if not isinstance(tensor_raw, dict):
        raise RingFormatError("tensor must be an object with 'i,j' keys")
    tensor: Dict[Tuple[str, str], Dict[str, int]] = {}
    for key, row in tensor_raw.items():
        parts = key.split(",")
        if len(parts) != 2:
            raise RingFormatError(f"tensor key {key!r} is not of the form 'i,j'")
        if not isinstance(row, dict):
            raise RingFormatError(f"tensor[{key!r}] must be an object label->multiplicity")
        tensor[(parts[0], parts[1])] = row
    return FusionRing(doc["name"], tuple(doc["labels"]), doc["unit"], dual, tensor)


def load(path: str) -> FusionRing:
    """Load and fully validate a fusion-ring JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise RingFormatError(
                f"JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from None
    ring = ring_from_dict(doc)
    report = validate_ring(ring)
    if report:
        raise RingValidationError(report)
    return ring


def save(ring: FusionRing, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ring_to_dict(ring), fh, indent=2, sort_keys=True)
        fh.write("\n")
