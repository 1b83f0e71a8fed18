"""Every private name in ``src/homkit`` is used: each ``_``-prefixed
function or method (dunders aside), and each ``_``-prefixed module-level
constant or class, is referenced somewhere in the package outside its own
definition, so a helper or constant whose last reader was removed does not
linger.  Every module-level function and class, public or private, is read
in the package outside its own definition or exported by its
``__init__.py``.  Every name a module imports is read in that module, or
listed in its ``__all__``; the package's ``__init__.py`` imports to
re-export."""
from __future__ import annotations

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "homkit"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_definitions(tree) -> list:
    """(name, defining node) of each private function or method anywhere in
    ``tree``, and of each private class or assigned name at module level."""
    found = [(node.name, node) for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            found.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.extend((target.id, node) for target in targets if isinstance(target, ast.Name))
    return [(name, node) for name, node in found if _private(name)]


def module_level_definitions(tree) -> list:
    """(name, defining node) of each function and class at module level."""
    return [(node.name, node) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def unreferenced(paths, definitions, exported=frozenset()) -> list:
    """``file:line name`` of each of the ``definitions(tree)`` in ``paths``
    that is not in ``exported`` and that no name or attribute in ``paths``
    outside its own definition refers to."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    uses = {}   # name -> [(path, line)]
    for path, tree in trees.items():
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else \
                node.attr if isinstance(node, ast.Attribute) else None
            if name is not None:
                uses.setdefault(name, []).append((path, node.lineno))
    found = []
    for path, tree in trees.items():
        for name, node in definitions(tree):
            if name not in exported and not any(
                    p != path or not node.lineno <= line <= node.end_lineno
                    for p, line in uses.get(name, [])):
                found.append(f"{path.name}:{node.lineno} {name}")
    return sorted(found)


def unreferenced_private_names(paths) -> list:
    """Each private definition in ``paths`` (``private_definitions``) that
    nothing outside its own definition refers to, as ``unreferenced``."""
    return unreferenced(paths, private_definitions)


def unread_module_level_names(package) -> list:
    """Each module-level function or class in the modules of ``package``
    that nothing in the package outside its own definition reads and that
    its ``__init__.py`` does not import to export, as ``unreferenced``."""
    init = ast.parse((package / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    return unreferenced(sorted(package.glob("*.py")), module_level_definitions, exported)


def unused_imports(paths) -> list:
    """``file:line name`` of each name bound by an import in ``paths`` that
    its module never reads (no ``Name`` node of it, as a whole name or as the
    base of an attribute) and does not list in a literal ``__all__``;
    ``from __future__`` imports aside."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                read.update(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read:
                        found.append(f"{path.name}:{node.lineno} {name}")
    return sorted(found)


def test_every_import_is_read():
    assert unused_imports(sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")) == []


def test_the_scan_sees_an_unused_import(tmp_path):
    # a dataclasses.field left behind after its last default factory went
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from __future__ import annotations\n\n"
        "import os.path\n"
        "from dataclasses import dataclass, field\n"
        "from typing import Optional\n"
        "from .helpers import exported, unused as alias\n\n"
        "__all__ = ['exported']\n\n\n"
        "@dataclass\n"
        "class A:\n    x: Optional[int] = None\n\n\n"
        "def run():\n    return os.path.join('a', 'b')\n")
    assert unused_imports([mod]) == ["mod.py:4 field", "mod.py:6 alias"]


def test_every_private_helper_is_referenced():
    assert unreferenced_private_names(sorted(SRC.glob("*.py"))) == []


def test_the_scan_sees_an_unused_helper(tmp_path):
    used = tmp_path / "used.py"
    used.write_text("from .helpers import _called\n\n\ndef run():\n    return _called()\n")
    helpers = tmp_path / "helpers.py"
    helpers.write_text(
        "def _called():\n    return 1\n\n\n"
        "class A:\n    def __init__(self):\n        self._go()\n\n"
        "    def _go(self):\n        pass\n\n"
        "    def _idle(self):\n        return self._idle()\n")
    assert unreferenced_private_names([used, helpers]) == ["helpers.py:12 _idle"]


def test_the_scan_sees_a_leftover_slide_helper(tmp_path):
    # the per-position source list that eps1-perp no longer reads
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    lifting = tmp_path / "lifting.py"
    line = len(lifting.read_text().splitlines()) + 3
    lifting.write_text(lifting.read_text() + (
        "\n\ndef _slid_sources(e_cx, i):\n"
        "    base = shift(e_cx, -1)\n"
        "    (blo, bhi), (ilo, ihi) = base.support, i.support\n"
        "    return [shift(base, -s) for s in range(ilo - bhi, ihi - blo + 2)]\n"))
    assert unreferenced_private_names(sorted(tmp_path.glob("*.py"))) == \
        [f"lifting.py:{line} _slid_sources"]


def test_the_scan_sees_an_unused_constant(tmp_path):
    # a search cap left behind after its last reader went
    used = tmp_path / "used.py"
    used.write_text("from .helpers import _LIMIT\n\n\ndef run(n):\n    return n <= _LIMIT\n")
    helpers = tmp_path / "helpers.py"
    helpers.write_text(
        "_LIMIT = 1 << 10\n_TABLE: dict = {}\n_CAP = 1 << 14\n__all__ = ['run']\n\n\n"
        "class _Unread:\n    pass\n\n\n"
        "def run():\n    return _TABLE\n")
    assert unreferenced_private_names([used, helpers]) == \
        ["helpers.py:3 _CAP", "helpers.py:7 _Unread"]


def unread_but_kept(found: list) -> list:
    """``found`` without ``caches.stats``, the registry's report, which only
    the tests read so far."""
    return [entry for entry in found if not re.fullmatch(r"caches\.py:\d+ stats", entry)]


def test_every_module_level_name_is_read_or_exported():
    assert unread_but_kept(unread_module_level_names(SRC)) == []


def test_the_scan_sees_an_unread_public_function(tmp_path):
    # a public wrapper whose last reader was a test
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    construct = tmp_path / "construct.py"
    line = len(construct.read_text().splitlines()) + 3
    construct.write_text(construct.read_text() + (
        "\n\ndef injective_competitors(ring, x, u, degrees):\n"
        "    return [disk(k, m) for m in _passing(x, u, True) for k in degrees]\n"))
    assert unread_but_kept(unread_module_level_names(tmp_path)) == \
        [f"construct.py:{line} injective_competitors"]
