"""Modules of hlab use each other only through public names, and each
shared rule lives in one module."""

import ast
from pathlib import Path

import hlab

PACKAGE = Path(hlab.__file__).parent


def private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "hlab"
        if internal:
            found += [
                f"{path.name}:{node.lineno} imports {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    return found


def test_no_private_names_across_modules():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert [hit for path in modules for hit in private_imports(path)] == []


def test_inner_level_floor_lives_in_integrate():
    # the per-level tolerance rule of nested quadrature is QuadSpec.at_depth
    hits = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "integrate.py" and "1e-290" in path.read_text()
    ]
    assert hits == []
