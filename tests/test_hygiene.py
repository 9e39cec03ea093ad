"""Source hygiene: every imported name is used, and every module-level
private name of the package is read somewhere in it.

The package's `__init__.py` is left out of the import check, since its
imports are re-exports.  `from __future__` imports change the compiler, not
the namespace, so they are exempt too.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "triadbalance").glob("*.py"))
SOURCES = sorted(
    [p for p in (ROOT / "src" / "triadbalance").glob("*.py")
     if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
    + list((ROOT / "scripts").glob("*.py")))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every name bound by an import and never read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_sources_found():
    assert len(SOURCES) > 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_caught():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys as system\n"
              "from math import pi, tau\n"
              "print(os.sep, tau)\n")
    assert unused_imports(source) == [(3, "system"), (4, "pi")]


def _names_read(node: ast.AST) -> set[str]:
    """Names the node loads, takes as attributes or imports."""
    read = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            read.add(child.id)
        elif isinstance(child, ast.Attribute):
            read.add(child.attr)
        elif isinstance(child, ast.ImportFrom):
            read.update(alias.name for alias in child.names)
    return read


def unused_private_names(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(file, line, name) of every module-level private name (one leading
    underscore) defined in one of the `sources` and read by no statement
    there but its own definition."""
    statements = [(file, node) for file, source in sources.items()
                  for node in ast.parse(source).body]
    reads = [_names_read(node) for _, node in statements]
    unused = []
    for at, (file, node) in enumerate(statements):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names = [node.target.id]
        else:
            continue
        unused += [(file, node.lineno, name) for name in names
                   if name.startswith("_") and not name.startswith("__")
                   and not any(name in read for other, read in enumerate(reads)
                               if other != at)]
    return sorted(unused)


def test_no_unused_private_names():
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
               for p in PACKAGE}
    assert unused_private_names(sources) == []


def test_unused_private_name_is_caught():
    sources = {
        "a.py": ("_USED = 1\n_UNUSED: int = 2\n__dunder__ = 3\n"
                 "def _helper():\n    return _USED\n"
                 "def _dead():\n    return _dead\n"
                 "class _Kept:\n    pass\n"),
        "b.py": "from a import _helper\nimport a\nprint(a._Kept)\n",
    }
    assert unused_private_names(sources) == [("a.py", 2, "_UNUSED"),
                                             ("a.py", 6, "_dead")]
