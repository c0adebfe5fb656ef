"""Built-in fusion rings and file I/O for user-defined ones.

Each fixed ring in :data:`ENTRIES` is plain data: its labels, the unit first,
its fusion rules as text, its dual map and the exact dimensions of its
non-invertible labels, written as the arguments of :func:`sectorwb.scalar.quad`
(an int when rational).  Label conventions are fixed so CLI expressions stay
stable.  The ``s4_rep`` and ``a4_rep`` tables match the character products of
explicit permutation matrices in tests/_oracles.py.

The shipped tables are validated by tests/test_catalog.py, not by :func:`builtin`
on every call; rings read from files are validated as they load.  Importing this
module loads neither :mod:`sectorwb.fusion`, which only the functions that build,
read or validate a ring import, nor :mod:`sectorwb.scalar`, which only :func:`dimensions` does.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Dict, List, Mapping, NamedTuple, Optional, Tuple

from ._base import qint

if TYPE_CHECKING:
    from .fusion import FusionRing
    from .scalar import QuadExt


class RingFormatError(ValueError):
    """File does not conform to the fusion-ring JSON format."""


class RingValidationError(ValueError):
    """Ring parsed fine but violates the fusion axioms; carries the report."""

    def __init__(self, report: List[str]):
        super().__init__("fusion-ring axioms violated:\n  " + "\n  ".join(report))
        self.report = report


class CatalogEntry(NamedTuple):
    """A built-in ring.  A fixed ring has space-separated ``labels``, the unit
    first, and one fusion rule per line of ``rules``, ``a*b = b*a = c + 2*d``:
    every product on the left of a line gets the sector expression on its right,
    and the unit rows are implied.  ``su2`` has no labels and takes a level."""

    key: str
    note: str
    labels: str = ""
    rules: str = ""
    dual: Mapping[str, str] = {}
    dims: Mapping[str, tuple | int] = {}  # of the non-invertible labels, quad's arguments

    @property
    def parametrized(self) -> bool:
        return not self.labels


# su2 at level k has (k+1)^2 products and a dense tensor of (k+1)^3 entries,
# so memory grows as k^3: `swb validate su2` peaks at about 100 MB at k = 120
# and 350 MB at k = 200
MAX_LEVEL = 150
_SU2_NAME = "su2_{}"

# n -> the arguments of quad for 2cos(2pi/n), for the n a classification link uses
TWO_COS = {4: (0,), 5: ("-1/2", "1/2", 5), 6: (1,), 8: (0, 1, 2), 10: ("1/2", "1/2", 5)}


def _su2(k: int) -> FusionRing:
    from .fusion import FusionRing
    labels = tuple(f"l{i}" for i in range(k + 1))
    tensor = {(labels[i], labels[j]):
              dict.fromkeys(labels[abs(i - j):min(i + j, 2 * k - i - j) + 1:2], 1)
              for i in range(k + 1) for j in range(k + 1)}
    return FusionRing(_SU2_NAME.format(k), labels, "l0", {}, tensor)


def _ring(entry: CatalogEntry) -> FusionRing:
    from .fusion import FusionRing, parse_sector_expr
    labs = tuple(entry.labels.split())
    unit = labs[0]
    tensor = {}
    for x in labs:
        tensor[(unit, x)] = tensor[(x, unit)] = {x: 1}
    for line in entry.rules.strip().splitlines():
        *products, rhs = line.split("=")
        row = {lab: n for n, (lab,) in parse_sector_expr(rhs, labs)}
        for product in products:
            i, j = (t.strip() for t in product.split("*"))
            tensor[(i, j)] = row
    return FusionRing(entry.key, labs, unit, entry.dual, tensor)


ENTRIES: Tuple[CatalogEntry, ...] = (
    CatalogEntry("su2", "SU(2) level-k Verlinde ring, labels l0..lk (pass k)"),
    CatalogEntry("d6_even", "even sectors of the D6 subfactor", "1 r r1 r2", """
        r*r = 1 + r + r1 + r2
        r*r1 = r1*r = r + r2
        r*r2 = r2*r = r + r1
        r1*r1 = 1 + r1
        r2*r2 = 1 + r2
        r1*r2 = r2*r1 = r
        """, dims={"r": ("3/2", "1/2", 5), "r1": ("1/2", "1/2", 5), "r2": ("1/2", "1/2", 5)}),
    CatalogEntry("e6_even", "even sectors of the E6 subfactor", "1 a e", """
        a*a = 1
        a*e = e*a = e
        e*e = 1 + a + 2*e
        """, dims={"e": (1, 1, 3)}),
    # 1, sign, the 2-dim, the standard 3-dim and its product with the sign
    CatalogEntry("s4_rep", "unitary dual of the symmetric group S4", "1 a e2 e ae", """
        a*a = 1
        a*e2 = e2*a = e2
        a*e = e*a = ae
        a*ae = ae*a = e
        e2*e2 = 1 + a + e2
        e2*e = e*e2 = e2*ae = ae*e2 = e + ae
        e*e = ae*ae = 1 + e2 + e + ae
        e*ae = ae*e = a + e2 + e + ae
        """, dims={"e2": 2, "e": 3, "ae": 3}),
    # the cubic characters w, w2 and the 3-dim v
    CatalogEntry("a4_rep", "unitary dual of the alternating group A4", "1 w w2 v", """
        w*w = w2
        w*w2 = w2*w = 1
        w2*w2 = w
        w*v = v*w = w2*v = v*w2 = v
        v*v = 1 + w + w2 + 2*v
        """, dual={"w": "w2", "w2": "w"}, dims={"v": 3}),
    # the Klein four-group 1, t, tq, tp of automorphisms and x
    CatalogEntry("d6aff_even", "even sectors of the affine-D6 subfactor", "1 t tq tp x", """
        t*t = tq*tq = tp*tp = 1
        t*tq = tq*t = tp
        t*tp = tp*t = tq
        tq*tp = tp*tq = t
        t*x = x*t = tq*x = x*tq = tp*x = x*tp = x
        x*x = 1 + t + tq + tp
        """, dims={"x": 2}),
    # Z/3 = {1, t, t2} and the self-dual t^i r, with r*t = t2*r
    CatalogEntry("haagerup_even", "even sectors of the Haagerup subfactor", "1 t t2 r tr t2r", """
        t*t = t2
        t*t2 = t2*t = 1
        t2*t2 = t
        t*t2r = t2*tr = tr*t = t2r*t2 = r
        t*r = t2*t2r = r*t2 = t2r*t = tr
        t*tr = t2*r = r*t = tr*t2 = t2r
        r*r = tr*tr = t2r*t2r = 1 + r + tr + t2r
        tr*r = t2r*tr = r*t2r = t + r + tr + t2r
        t2r*r = r*tr = tr*t2r = t2 + r + tr + t2r
        """, dual={"t": "t2", "t2": "t"},
        dims=dict.fromkeys(("r", "tr", "t2r"), ("3/2", "1/2", 13))),
)


def _entry(key: str) -> CatalogEntry:
    entry = next((e for e in ENTRIES if e.key == key), None)
    if entry is None:
        raise KeyError(f"unknown catalog key {key!r}")
    return entry


def _check_level(entry: CatalogEntry, k: Optional[int]) -> None:
    """``su2`` takes an integer level 1 <= k <= MAX_LEVEL, a fixed ring none."""
    if not entry.parametrized:
        if k is not None:
            raise ValueError(f"{entry.key} takes no level parameter")
    elif not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"{entry.key} requires an integer level k >= 1")
    elif k > MAX_LEVEL:
        raise ValueError(f"{entry.key} level k = {k} is above the cap k <= {MAX_LEVEL}")


def builtin(key: str, k: Optional[int] = None) -> FusionRing:
    """Return a built-in ring, unvalidated (see the module docstring); ``su2``
    requires a level 1 <= k <= MAX_LEVEL, checked before anything is built."""
    entry = _entry(key)
    _check_level(entry, k)
    return _su2(k) if entry.parametrized else _ring(entry)


def dimensions(key: str, k: Optional[int] = None) -> Dict[str, QuadExt | int]:
    """Exact dimensions of a built-in ring, building none: every label of a fixed
    ring (1 where its entry lists none), and the even labels of ``su2`` when
    x = quad(*TWO_COS[k + 2]) exists: d(l0) = 1, d(l2) = 1 + x,
    d(l2) d(l_2j) = d(l_2j-2) + d(l_2j) + d(l_2j+2).
    A level that is given passes the checks of :func:`builtin`."""
    entry = _entry(key)
    if k is not None or not entry.parametrized:
        _check_level(entry, k)
    from .scalar import quad
    if not entry.parametrized:
        dims = {lab: entry.dims.get(lab, 1) for lab in entry.labels.split()}
        return {lab: quad(*d) if isinstance(d, tuple) else d for lab, d in dims.items()}
    if k is None or k + 2 not in TWO_COS:
        raise ValueError(f"{key} has no exact dimensions at level {k}")
    d = [1, 1 + quad(*TWO_COS[k + 2])]
    while len(d) <= k // 2:
        d.append(d[1] * d[-1] - d[-1] - d[-2])
    return {f"l{2 * j}": v for j, v in enumerate(d)}


def float_dimensions(key: str, k: Optional[int] = None) -> Tuple[str, Dict[str, float]]:
    """The name of ``builtin(key, k)`` and float dimensions of all its labels, after
    the checks of :func:`builtin` but building no ring: the exact :func:`dimensions`
    of a fixed ring, the quantum integer [j+1] = sin((j+1) pi/n) / sin(pi/n) with
    n = k + 2 for l_j of su2.  A fixed ring's floats are read from quad's arguments
    a, b, m as a + b sqrt(m) with int true division, which rounds correctly, so
    they are the bits of ``float(quad(a, b, m))`` without a QuadExt."""
    entry = _entry(key)
    _check_level(entry, k)
    if not entry.parametrized:
        return key, {lab: _float_dim(entry.dims.get(lab, 1)) for lab in entry.labels.split()}
    n = k + 2
    return _SU2_NAME.format(k), {f"l{j}": qint(j + 1, n) for j in range(k + 1)}


def _float_dim(d: tuple | int) -> float:
    if isinstance(d, int):
        return float(d)
    (a_num, _, a_den), (b_num, _, b_den) = (str(x).partition("/") for x in d[:2])
    return int(a_num) / int(a_den or 1) + int(b_num) / int(b_den or 1) * math.sqrt(d[2])


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
    from .fusion import FusionRing
    if not isinstance(doc, dict):
        raise RingFormatError("top-level JSON value must be an object")
    unknown = set(doc) - _ALLOWED_FIELDS
    if unknown:
        raise RingFormatError(f"unknown fields: {sorted(unknown)}")
    missing = {"name", "labels", "unit", "tensor"} - set(doc)
    if missing:
        raise RingFormatError(f"missing fields: {sorted(missing)}")
    if not isinstance(doc["name"], str):
        raise RingFormatError("name must be a string")
    if not isinstance(doc["labels"], list) or not all(isinstance(x, str) for x in doc["labels"]):
        raise RingFormatError("labels must be an array of strings")
    dual = doc.get("dual", {})
    if not isinstance(dual, dict):
        raise RingFormatError("dual must be an object label->label")
    tensor_raw = doc["tensor"]
    if not isinstance(tensor_raw, dict):
        raise RingFormatError("tensor must be an object with 'i,j' keys")
    tensor = dict(zip(map(tuple, map(str.split, tensor_raw, itertools.repeat(","))),
                      tensor_raw.values()))
    if not (set(map(len, tensor)) <= {2} and set(map(type, tensor.values())) <= {dict}):
        # name the first bad entry, its key checked before its row
        for key, row in tensor_raw.items():
            if len(key.split(",")) != 2:
                raise RingFormatError(f"tensor key {key!r} is not of the form 'i,j'")
            if not isinstance(row, dict):
                raise RingFormatError(f"tensor[{key!r}] must be an object label->multiplicity")
    return FusionRing(doc["name"], tuple(doc["labels"]), doc["unit"], dual, tensor)


def load(path: str) -> FusionRing:
    """Load and fully validate a fusion-ring JSON file."""
    import json

    from .fusion import validate_ring

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
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ring_to_dict(ring), fh, indent=2, sort_keys=True)
        fh.write("\n")
