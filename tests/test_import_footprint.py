"""Importing the package and its command line loads no dataclass or introspection machinery.

Nor ``heapq``: only enumerating the trees of an ambiguous forest needs it.
"""

import pathlib
import subprocess
import sys

import pytest

import fence

SOURCE_ROOT = pathlib.Path(fence.__file__).parent.parent
HEAVY = ("dataclasses", "inspect", "ast", "dis", "heapq")


@pytest.mark.parametrize("module", ["fence", "fence.cli"])
def test_a_fresh_interpreter_imports_the_package_without_heavy_modules(module):
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(SOURCE_ROOT)!r})\n"
        "before = set(sys.modules)\n"
        f"import {module}\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    run = subprocess.run([sys.executable, "-I", "-c", script], capture_output=True, text=True, check=True)
    added = run.stdout.split()
    assert module in added
    assert [name for name in HEAVY if name in added] == []
