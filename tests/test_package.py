import ast
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import sectorwb
from sectorwb._base import Frozen, PositionedSyntaxError


def test_exports_are_unique_and_resolve():
    assert len(sectorwb.__all__) == len(set(sectorwb.__all__))
    for name in sectorwb.__all__:
        assert hasattr(sectorwb, name), name


def test_every_public_import_is_exported():
    # the lazy table is the whole public surface: each name is the object
    # of that name in the module the table gives, and dir() lists it
    assert list(sectorwb._EXPORTS) == sectorwb.__all__
    for name, module in sectorwb._EXPORTS.items():
        assert getattr(sectorwb, name) is getattr(import_module(f"sectorwb.{module}"), name), name
    assert set(sectorwb.__all__) <= set(dir(sectorwb))


def test_submodules_and_unknown_names():
    # a submodule resolves after a bare `import sectorwb`; anything else is
    # an AttributeError (checked in a fresh interpreter, where nothing of the
    # package has been imported yet)
    probe = """
import sys
import sectorwb
assert sectorwb.fusion is sys.modules["sectorwb.fusion"]
assert sectorwb.cli.main.__module__ == "sectorwb.cli"
try:
    sectorwb.nope
except AttributeError as exc:
    assert str(exc) == "module 'sectorwb' has no attribute 'nope'", exc
else:
    raise AssertionError("sectorwb.nope resolved")
assert "sectorwb.nope" not in sys.modules
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    subprocess.run([sys.executable, "-c", probe], env=env, check=True)


def test_no_module_imports_a_private_name_of_another():
    # a name another module needs is public; `from ._base import EPS_ABS` is
    # fine, `from .fusion import _times` is not
    crossing = []
    for path in sorted(Path(sectorwb.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                crossing += [f"{path.stem}: from {'.' * node.level}{node.module or ''} "
                             f"import {alias.name}" for alias in node.names
                             if alias.name.startswith("_")]
    assert crossing == []


def test_floats_are_printed_by_one_formatter():
    # the 12-significant-digit spec is written once, in _base.fmt
    specs = {path.stem: path.read_text().count(".12g")
             for path in Path(sectorwb.__file__).parent.glob("*.py")}
    assert {stem: n for stem, n in specs.items() if n} == {"_base": 1}


def test_both_syntax_errors_share_one_positioned_base():
    for cls, parse, position in (
            (sectorwb.ExprSyntaxError, lambda: sectorwb.parse_sector_expr("a**a", ["a"]), 2),
            (sectorwb.CuntzSyntaxError, lambda: sectorwb.parse("T0*"), 3)):
        assert issubclass(cls, PositionedSyntaxError) and issubclass(cls, ValueError)
        assert "__init__" not in vars(cls)
        with pytest.raises(cls, match=rf"\(at position {position}\)$") as exc:
            parse()
        assert exc.value.position == position
    assert not issubclass(sectorwb.ExprSyntaxError, sectorwb.CuntzSyntaxError)
    assert not issubclass(sectorwb.CuntzSyntaxError, sectorwb.ExprSyntaxError)


@pytest.mark.parametrize("record, field", [
    (sectorwb.quad(3, 1, 13), "a"),
    (sectorwb.QSixJ(5, 1, 1, 1, 1, 1, 1), "j1"),
    (sectorwb.builtin("e6_even"), "name"),
    (sectorwb.AngleSpectrum((0.5,)), "angles"),
    (sectorwb.AngleCandidate(0.5, 1.0), "cosine"),
], ids=["QuadExt", "QSixJ", "FusionRing", "AngleSpectrum", "AngleCandidate"])
def test_record_fields_cannot_be_assigned(record, field):
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    deleted = "cannot delete field" if isinstance(record, Frozen) else "delete"
    with pytest.raises(AttributeError, match=deleted):
        delattr(record, field)
    assert repr(record) == before


def test_records_of_another_class_are_unequal():
    # Frozen.__eq__ leaves another class to Python, whose == then compares identity
    six_j, spectrum = sectorwb.QSixJ(5, 1, 1, 1, 1, 1, 1), sectorwb.AngleSpectrum(())
    assert six_j.__eq__(spectrum) is NotImplemented
    assert six_j != spectrum and not spectrum == six_j
