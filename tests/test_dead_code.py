"""No leftovers in the package: every module-level private name is read
somewhere in it, and no module but `__init__` imports a name it never reads.

Static checks on the source with the standard library's `ast` only: a name
counts as read where it is loaded, as a bare name or as an attribute of a
module (`kinematics._speed_columns`).
"""
import ast
from pathlib import Path

import pytest

import ptdirac

SOURCES = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
           for path in sorted(Path(ptdirac.__file__).parent.glob("*.py"))}


def read_names(tree: ast.AST) -> set[str]:
    """The names a tree loads, bare or as the attribute of an expression."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def module_private_names(tree: ast.Module) -> set[str]:
    """Private names (`_x`, not dunder) bound by a module's own statements."""
    bound = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.For)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            bound.update(node.id for target in targets for node in ast.walk(target)
                         if isinstance(node, ast.Name))
    return {name for name in bound
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))}


def imported_names(tree: ast.Module) -> set[str]:
    """The names a module's imports bind, `from __future__` excepted."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return names


def test_the_checks_see_every_module():
    assert {"__init__", "clifford", "kinematics", "spinors", "verify"} <= set(SOURCES)


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_every_module_level_private_name_is_read_in_the_package(module):
    read = set().union(*map(read_names, SOURCES.values()))
    assert sorted(module_private_names(SOURCES[module]) - read) == []


@pytest.mark.parametrize("module", sorted(set(SOURCES) - {"__init__"}))
def test_no_module_imports_a_name_it_never_reads(module):
    tree = SOURCES[module]
    assert sorted(imported_names(tree) - read_names(tree)) == []


def test_the_checks_catch_an_unread_private_name_and_an_unread_import():
    tree = ast.parse("import os\nfrom math import inf, pi\n_A, _B = 1, 2\n"
                     "def _f():\n    return _B + pi\n")
    assert module_private_names(tree) == {"_A", "_B", "_f"}
    assert module_private_names(tree) - read_names(tree) == {"_A", "_f"}
    assert imported_names(tree) - read_names(tree) == {"os", "inf"}
