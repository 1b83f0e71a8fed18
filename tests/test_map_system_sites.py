"""Where ``MapSystem``s are built: ``lifting`` builds none, and ``complexes``
builds one in ``null_homotopy`` (its unknowns have degree -1) and one in
``_factor_through``, the one solver for "g o phi = f" and "phi o g = f"
that retractions, hom-row lifts and lifting confirmations share, so a
second retraction system does not creep back in."""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "homkit"


def map_system_sites(path: Path) -> list:
    """The name of the function around each ``MapSystem(...)`` call in
    ``path`` (None at module level), in source order."""
    tree = ast.parse(path.read_text(), filename=str(path))
    sites = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name == "MapSystem":
                sites.append((node.lineno, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return [owner for _, owner in sorted(sites)]


def test_lifting_builds_no_map_system():
    assert map_system_sites(SRC / "lifting.py") == []


def test_complexes_builds_two_map_systems():
    assert map_system_sites(SRC / "complexes.py") == ["null_homotopy", "_factor_through"]


def test_the_scan_sees_a_second_retraction_system(tmp_path):
    path = tmp_path / "complexes.py"
    path.write_text((SRC / "complexes.py").read_text() + (
        "\n\ndef _retraction(L, M, inj):\n"
        "    ms = modules.MapSystem(L.ring)\n"
        "    return ms.solve()\n"))
    assert map_system_sites(path) == ["null_homotopy", "_factor_through", "_retraction"]
