import ast
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import sectorwb
from sectorwb.scalar import Frozen


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
