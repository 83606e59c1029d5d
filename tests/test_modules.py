"""No module of the package reaches into a sibling's private names: what
one module uses of another is public. No module imports scipy when it is
itself imported, and none imports scipy.spatial at all."""

import ast
from pathlib import Path

import pytest

import dsmsharp

MODULES = sorted(Path(dsmsharp.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_is_imported_from_a_sibling(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    private = [
        f"line {node.lineno}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def _run_on_import(nodes):
    """The nodes under ``nodes`` that run when the module is imported: all
    but the bodies of functions."""
    for node in nodes:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield node
            yield from _run_on_import(ast.iter_child_nodes(node))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_scipy_is_imported_only_inside_functions(path):
    """scipy serves graph-cut's solvers only, so importing the package, and
    every command that does not run graph-cut, loads numpy alone."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = [
        (node.lineno, name)
        for node in _run_on_import(tree.body)
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.Import)
            else [node.module or ""] if isinstance(node, ast.ImportFrom) and node.level == 0
            else []
        )
    ]
    assert [(line, name) for line, name in imported if name.split(".")[0] == "scipy"] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_scipy_spatial(path):
    """Graph-cut's densification searches by rings, so scipy serves the
    max-flow and breadth-first search alone."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = [
        (node.lineno, name)
        for node in ast.walk(tree)
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.Import)
            else [node.module or ""] if isinstance(node, ast.ImportFrom) and node.level == 0
            else []
        )
    ]
    spatial = [(line, name) for line, name in names if name.split(".")[:2] == ["scipy", "spatial"]]
    assert spatial == []
