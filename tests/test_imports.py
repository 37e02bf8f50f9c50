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


def test_one_monte_carlo_block():
    # both Monte Carlo integrals, the operators' engine and the Cartesian
    # oracle, draw their gauges in integrate.tilted_values
    callers = [
        f"{path.name}:{top.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for top in ast.parse(path.read_text()).body
        if isinstance(top, ast.FunctionDef)
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "tilted_values"
    ]
    assert callers == ["operators.py:evaluate", "verify.py:_cartesian_values_fn"]


def test_integrate_holds_no_group_constant():
    # a Monte Carlo caller passes each factor's polar constant: the engines
    # take from hgroup no ball volume and no sphere area
    tree = ast.parse((PACKAGE / "integrate.py").read_text())
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("hgroup")
        for alias in node.names
    ]
    assert names and not [n for n in names if "ball" in n or "sphere" in n]
