"""No module-level import in the package or the tests goes unused, and
no private definition in the package goes unread.

A name bound by an import at the top of a module must be read somewhere
in that module or listed in its __all__ (the package root re-exports
its names that way).  A function, class or method that the package
defines and its module's __all__ does not list must be read, as a name
or an attribute, somewhere in the package or in perfbench: code that
only the tests use belongs in tests/helpers.py.  Standard library only:
the scans read each file's syntax tree.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "spectral3").glob("*.py"))
FILES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])
READERS = [*PACKAGE, *sorted((ROOT / "perfbench").glob("*.py"))]
# called by the library that defines them, not by name in our code
HOOKS = {"convert_arg_line_to_args"}


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list:
    """Names bound by module-level imports of source that it neither
    reads nor lists in __all__, sorted."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            # "import a.b" binds a
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - read - _exported(tree))


def unread_definitions(sources: list, readers: list) -> list:
    """Names of the functions, classes and methods defined at any depth
    in sources, less their module's __all__, dunders and HOOKS, that no
    source in readers reads as a name or an attribute, sorted."""
    defined = set()
    for source in sources:
        tree = ast.parse(source)
        defined |= {n.name for n in ast.walk(tree) if isinstance(
            n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        } - _exported(tree)
    read = set()
    for source in readers:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Name):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    return sorted(name for name in defined - read - HOOKS
                  if not (name.startswith("__") and name.endswith("__")))


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\nimport os.path\nfrom json import dumps, loads\n"
              "from sys import argv as args\n"
              "__all__ = ['loads']\n"
              "print(os.sep)\n")
    assert unused_imports(source) == ["args", "dumps"]


def test_the_scan_finds_an_unread_method():
    source = ("__all__ = ['Shown']\n"
              "class Shown:\n"
              "    def __init__(self):\n"
              "        self.used()\n"
              "    def used(self):\n"
              "        return _helper()\n"
              "    def unread(self):\n"
              "        pass\n"
              "def _helper():\n"
              "    return 1\n"
              "class _Dead:\n"
              "    pass\n")
    assert unread_definitions([source], [source]) == ["_Dead", "unread"]
    # a read in another reader counts
    assert unread_definitions([source], [source, "x.unread(_Dead)\n"]) == []


def test_files_are_found():
    names = {p.name for p in FILES}
    assert {"forward.py", "__init__.py", "conftest.py",
            "test_imports.py"} <= names
    assert {"run.py", "spans.py"} <= {p.name for p in READERS}


def test_no_unread_private_definition():
    assert unread_definitions([p.read_text() for p in PACKAGE],
                              [p.read_text() for p in READERS]) == []


@pytest.mark.parametrize("path", FILES,
                         ids=lambda p: "%s/%s" % (p.parent.name, p.name))
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []
