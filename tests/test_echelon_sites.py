"""One echelon routine in ``src/homkit``: ``_gcdex`` is called once, by the
insertion inside ``exactalg._echelon``, which gives both the Howell (Z/n)
and the Hermite (Z) form, and none of the solvers and bases it replaced is
defined again, so a second copy of the echelon algorithm does not creep
back in."""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "homkit"

REPLACED = {"_eliminate_local", "_eliminate_mod", "_eliminate_int", "_hermite_insert",
            "hermite_rows", "_hermite_reduce", "_howell_insert", "_howell_basis",
            "_howell_reduce_vector"}


def call_sites(paths, callee: str) -> list:
    """``file:function`` of each call of ``callee`` in ``paths``, named by
    the top-level function or class around it (None at module level)."""
    sites = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else \
                        func.attr if isinstance(func, ast.Attribute) else None
                    if name == callee:
                        sites.append(f"{path.name}:{owner}")
    return sorted(sites)


def defined_names(paths) -> set:
    return {node.name for path in paths
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def test_gcdex_is_called_once_by_the_echelon_insertion():
    assert call_sites(sorted(SRC.glob("*.py")), "_gcdex") == ["exactalg.py:_echelon"]


def test_no_replaced_solver_or_basis_is_defined():
    assert defined_names(sorted(SRC.glob("*.py"))) & REPLACED == set()


def test_the_scan_sees_a_second_echelon_copy(tmp_path):
    path = tmp_path / "exactalg.py"
    path.write_text((SRC / "exactalg.py").read_text() + (
        "\n\ndef _howell_insert(basis, row, n):\n"
        "    g, s, t, u, v = _gcdex(basis[0][0], row[0])\n"
        "    return g\n"))
    assert call_sites([path], "_gcdex") == ["exactalg.py:_echelon", "exactalg.py:_howell_insert"]
    assert defined_names([path]) & REPLACED == {"_howell_insert"}
