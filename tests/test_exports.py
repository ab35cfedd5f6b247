"""The export lists: every listed name resolves, and the package lists exactly what it imports."""

import ast
import importlib
import pathlib

import fence

PACKAGE = pathlib.Path(fence.__file__).parent
# __main__ runs the command line when imported
MODULES = ["fence"] + [f"fence.{p.stem}" for p in sorted(PACKAGE.glob("*.py")) if p.stem not in ("__init__", "__main__")]


def test_every_name_in_an_export_list_resolves():
    listed = 0
    for name in MODULES:
        module = importlib.import_module(name)
        exports = getattr(module, "__all__", ())
        assert len(set(exports)) == len(exports), name
        assert [n for n in exports if not hasattr(module, n)] == [], name
        listed += bool(exports)
    assert listed >= 8  # the package and every submodule that keeps a list


def test_the_package_exports_exactly_the_public_names_it_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert sorted(n for n in imported if not n.startswith("_")) == sorted(fence.__all__)
