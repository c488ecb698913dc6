"""No module-level import in the package or the tests goes unused.

A name bound by an import at the top of a module must be read somewhere
in that module or listed in its __all__ (the package root re-exports
its names that way).  Standard library only: the scan reads each file's
syntax tree.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src" / "spectral3").glob("*.py"),
                *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list:
    """Names bound by module-level imports of source that it neither
    reads nor lists in __all__, sorted."""
    tree = ast.parse(source)
    bound, exported = set(), set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            # "import a.b" binds a
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - read - exported)


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\nimport os.path\nfrom json import dumps, loads\n"
              "from sys import argv as args\n"
              "__all__ = ['loads']\n"
              "print(os.sep)\n")
    assert unused_imports(source) == ["args", "dumps"]


def test_files_are_found():
    names = {p.name for p in FILES}
    assert {"forward.py", "__init__.py", "conftest.py",
            "test_imports.py"} <= names


@pytest.mark.parametrize("path", FILES,
                         ids=lambda p: "%s/%s" % (p.parent.name, p.name))
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []
