"""The package imports nothing outside the standard library."""

import ast
import pathlib
import sys

import fence

PACKAGE = pathlib.Path(fence.__file__).parent


def _absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_absolute_import_is_fence_or_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    for path in modules:
        for name in _absolute_imports(ast.parse(path.read_text(), str(path))):
            top = name.split(".")[0]
            assert top == "fence" or top in sys.stdlib_module_names, (path.name, name)
