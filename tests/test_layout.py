"""Every top-level function and class of the package is reached from the
package itself, not only from tests or from ``__init__``'s export list, and
no line of the package can make a float."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).parent.parent / "src" / "gkzkit"


def _names(node: ast.AST, modules: set[str]) -> set[str]:
    """Every bare name inside node, and every attribute read off a package
    module (``lattice.cone_facets``); a method of the same name does not count."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) \
                and sub.value.id in modules:
            out.add(sub.attr)
    return out


def unreferenced_definitions(package: pathlib.Path) -> list[str]:
    """module.name for each top-level def or class that no other top-level
    statement of a package module (``__init__`` aside) mentions."""
    definitions = []       # (module, name, statement)
    statements = []
    paths = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    for path in paths:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            statements.append(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((path.stem, stmt.name, stmt))
    modules = {path.stem for path in paths}
    referenced = {}
    for stmt in statements:
        for name in _names(stmt, modules):
            referenced.setdefault(name, []).append(stmt)
    return [f"{module}.{name}" for module, name, stmt in definitions
            if all(user is stmt for user in referenced.get(name, []))]


def test_every_definition_is_reached_from_the_package():
    assert (PACKAGE / "cli.py").is_file()
    assert unreferenced_definitions(PACKAGE) == []


def test_scan_flags_a_definition_only_itself_mentions(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import dead, used\n")
    (tmp_path / "a.py").write_text(
        "def dead(n):\n    return dead(n - 1) if n else 0\n\n\n"
        "def used():\n    return 1\n\n\n"
        "def split():\n    return 2\n\n\n"
        "def via_module():\n    return 3\n")
    (tmp_path / "b.py").write_text(
        "from . import a\nfrom .a import used\n\n"
        "VALUE = used() + a.via_module()\nPARTS = 'x,y'.split(',')\n")
    assert unreferenced_definitions(tmp_path) == ["a.dead", "a.split"]


def _calls(node: ast.AST, name: str) -> bool:
    """node is a call of the bare name."""
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
        and node.func.id == name


def float_sources(package: pathlib.Path) -> list[str]:
    """file:line of each float literal, ``float(...)`` call, and true division
    whose left operand is not a ``Fraction(...)`` call: int / int is a float,
    and coefficients may be ints."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            bad = (isinstance(node, ast.Constant) and type(node.value) is float
                   or _calls(node, "float")
                   or isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                   and not _calls(node.left, "Fraction")
                   or isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div))
            if bad:
                found.append((path.name, node.lineno))
    return [f"{name}:{line}" for name, line in sorted(found)]


def test_no_float_arithmetic_in_the_package():
    assert float_sources(PACKAGE) == []


def test_float_scan_flags_each_source(tmp_path):
    (tmp_path / "a.py").write_text(
        "from fractions import Fraction\n"
        "HALF = Fraction(1) / 2\n"
        "THIRD = Fraction(1, 3) // 1\n"
        "x = 1 / 2\n"
        "y = 0.5\n"
        "z = float('1')\n"
        "w = HALF\n"
        "w /= 2\n"
        "v = Fraction(1) * 3 / 4\n")
    assert float_sources(tmp_path) == ["a.py:4", "a.py:5", "a.py:6", "a.py:8", "a.py:9"]
