"""The oracles stay out of the package: barjanet defines none of the names
oracles.py defines, nor the members only tests called, and no module under
src/ imports the test modules."""

import ast
import importlib
import pkgutil
from pathlib import Path

import barjanet

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def defined_names(path):
    """The names a module binds at its top level by def, class or assignment."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def imported_roots(path):
    """The top-level package of every absolute import in a module."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def package_modules():
    return [barjanet] + [
        importlib.import_module(f"barjanet.{info.name}")
        for info in pkgutil.iter_modules(barjanet.__path__)
    ]


def test_no_oracle_name_in_the_package():
    names = defined_names(TESTS / "oracles.py")
    assert "janet_completion" in names and "_agrees_above" in names
    for module in package_modules():
        assert not names & set(vars(module)), module.__name__


def test_members_only_tests_called_stay_out():
    # the tests use oracles.combination for +/- and one-line rewrites for the rest
    removed = {
        barjanet.Polynomial: ("__add__", "__sub__", "__neg__"),
        barjanet.RationalMatrix: ("determinant", "rows", "cols", "transpose"),
        barjanet.Term: ("degree",),
        barjanet.CompletionReport: ("failing",),
    }
    for cls, members in removed.items():
        for member in members:
            assert not hasattr(cls, member), f"{cls.__name__}.{member}"
    for module in package_modules():
        assert not {"evaluation_matrix", "read_term_line"} & set(vars(module)), module.__name__


def test_the_package_imports_no_test_module():
    sources = sorted(SRC.rglob("*.py"))
    assert sources
    for path in sources:
        assert not imported_roots(path) & {"oracles", "helpers"}, path
