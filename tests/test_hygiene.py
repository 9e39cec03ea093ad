"""Source hygiene: every imported name is used, every module-level private
name of the package is read somewhere in it, every parameter of the
package's functions is read by the function's body, one rule picks the
width of the package's index arrays, and one helper writes a ratio to two
decimal places.

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


#: (file, function, parameter) -> why the parameter stays unread
UNREAD_PARAMETER_EXEMPTIONS = {
    ("census.py", "census", "workers"):
        "the criterion-7 acceptance tests call census(graph, workers=...)",
}


def unread_parameters(source: str) -> list[tuple[int, str, str]]:
    """(line, function, parameter) of every parameter, other than `self`
    and `cls`, that the function's body never reads."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                  *filter(None, (args.vararg, args.kwarg))]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {child.id for stmt in body for child in ast.walk(stmt)
                if isinstance(child, ast.Name)
                and isinstance(child.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        unread += [(node.lineno, name, param.arg) for param in params
                   if param.arg not in ("self", "cls", *read)]
    return sorted(unread)


def test_no_unread_parameters():
    found = {(path.name, function, param)
             for path in PACKAGE
             for _, function, param in unread_parameters(
                 path.read_text(encoding="utf-8"))}
    # an exemption that no longer matches anything must go too
    assert found == set(UNREAD_PARAMETER_EXEMPTIONS)


def test_unread_parameter_is_caught():
    source = ("class A:\n"
              "    def method(self, used, unused, *args, key=1, **kw):\n"
              "        unused = used\n"
              "        return kw[key]\n"
              "    @classmethod\n"
              "    def build(cls, spare):\n"
              "        return cls\n"
              "def outer(a, b):\n"
              "    def inner(c):\n"
              "        return a\n"
              "    return inner\n"
              "square = lambda x, y: x * x\n")
    assert unread_parameters(source) == [
        (2, "method", "args"), (2, "method", "unused"), (6, "build", "spare"),
        (8, "outer", "b"), (9, "inner", "c"), (12, "<lambda>", "y")]


#: the one place that picks a 32- or 64-bit index array: the bound and the
#: helper that reads it, both in graphs.py
INDEX_WIDTH_RULE = ("_INDEX32_LIMIT", "_index_dtype")


def _is_width_bound(node: ast.AST) -> bool:
    """`1 << 31`, `2 ** 31` or the constant 2147483648."""
    if isinstance(node, ast.Constant):
        return type(node.value) is int and node.value == 1 << 31
    if not (isinstance(node, ast.BinOp) and isinstance(node.left, ast.Constant)
            and isinstance(node.right, ast.Constant)):
        return False
    operands = (type(node.op), node.left.value, node.right.value)
    return operands in ((ast.LShift, 1, 31), (ast.Pow, 2, 31))


def width_rules(source: str) -> list[int]:
    """Lines of every 2**31 bound outside the index-width rule's bound and
    helper."""
    lines = []
    for node in ast.parse(source).body:
        defined = {getattr(node, "name", None)} | {
            t.id for t in getattr(node, "targets", ())
            if isinstance(t, ast.Name)}
        if defined.isdisjoint(INDEX_WIDTH_RULE):
            lines += [child.lineno for child in ast.walk(node)
                      if _is_width_bound(child)]
    return sorted(lines)


def test_one_index_width_rule():
    graphs = (ROOT / "src" / "triadbalance" / "graphs.py").read_text(
        encoding="utf-8")
    assert "_INDEX32_LIMIT = 1 << 31\n" in graphs
    assert {path.name: width_rules(path.read_text(encoding="utf-8"))
            for path in PACKAGE} == {path.name: [] for path in PACKAGE}


def test_a_second_width_rule_is_caught():
    source = ("_INDEX32_LIMIT = 1 << 31\n"
              "def _index_dtype(bound):\n"
              "    return bound < 1 << 31\n"
              "def other(n):\n"
              "    return n < 1 << 31 or n < 2 ** 31\n"
              "LIMIT = 2147483648\n"
              "SPARE = 1 << 30, 2 ** 32, 2147483648.0\n")
    assert width_rules(source) == [5, 5, 6]


#: the one place that writes a ratio to two decimal places: the report
#: table cell helper, in cli.py
TWO_PLACE_RULE = ("cli.py", "_two_places")


def two_place_specs(source: str, exempt: str | None = None) -> list[int]:
    """Lines of every string holding a `.2f` format spec, such as the spec
    of `f"{x:.2f}"` or the argument of `format(x, ".2f")`, outside the
    module-level function named `exempt`."""
    lines = []
    for node in ast.parse(source).body:
        if exempt is None or getattr(node, "name", None) != exempt:
            lines += [child.lineno for child in ast.walk(node)
                      if isinstance(child, ast.Constant)
                      and isinstance(child.value, str)
                      and ".2f" in child.value]
    return sorted(lines)


def test_one_two_place_rule():
    file, helper = TWO_PLACE_RULE
    source = (ROOT / "src" / "triadbalance" / file).read_text(encoding="utf-8")
    assert two_place_specs(source) != two_place_specs(source, helper)
    assert {path.name: two_place_specs(path.read_text(encoding="utf-8"),
                                       helper if path.name == file else None)
            for path in PACKAGE} == {path.name: [] for path in PACKAGE}


def test_a_second_two_place_rule_is_caught():
    source = ("def _two_places(ratio):\n"
              "    return '' if ratio is None else f'{ratio:.2f}'\n"
              "def row(x, y):\n"
              "    return [f'{x:.2f}', format(y, '.2f'), '%.2f' % x]\n"
              "SPARE = f'{1:.3f}', f'{2:2f}', '2f'\n"
              "def _other(z):\n"
              "    return f'{z:.2f}'\n")
    assert two_place_specs(source, "_two_places") == [4, 4, 4, 7]
    assert two_place_specs(source) == [2, 4, 4, 4, 7]
