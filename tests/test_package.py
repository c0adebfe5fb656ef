import ast
from pathlib import Path

import sectorwb


def test_exports_are_unique_and_resolve():
    assert len(sectorwb.__all__) == len(set(sectorwb.__all__))
    for name in sectorwb.__all__:
        assert hasattr(sectorwb, name), name


def test_every_public_import_is_exported():
    tree = ast.parse(Path(sectorwb.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert {name for name in imported if not name.startswith("_")} == set(sectorwb.__all__)
