"""Every memo in ``src/homkit`` is a table of ``homkit.caches`` (or an
``lru_cache`` registered there by reference), ``clear_caches`` empties all of
them, and their counters count."""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

from homkit import caches
from homkit.complexes import ChainMap, disk, hom_complex_data, null_homotopy, sphere, zero_complex
from homkit.construct import (
    OracleHypothesisError,
    _verify_oracle,
    precover_bounded,
    verify_precover_factorization,
    x_injective_envelope,
)
from homkit.exactalg import IntMatrix, RingSpec, Zmod
from homkit.lifting import eps1_perp_homotopy, x_injective_complex, x_injective_module
from homkit.modules import (
    FpModule,
    ModuleMap,
    direct_sum,
    hom_module,
    injective_hull,
)
from homkit.xclass import ALL, default_complex_universe, eps1_universe, module_universe

SRC = Path(__file__).resolve().parents[1] / "src" / "homkit"
MEMO_CALLS = {"dict", "defaultdict", "OrderedDict", "WeakValueDictionary", "WeakKeyDictionary"}
LRU_NAMES = {"lru_cache", "cache"}

R4 = Zmod(4)
Z2 = FpModule(R4, (2,))


def _name(node) -> str:
    """The last name of a (possibly dotted or called) expression."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _memo_shaped(value) -> bool:
    """An empty dict display or a call making a fresh mapping."""
    if isinstance(value, ast.Dict):
        return not value.keys
    return isinstance(value, ast.Call) and _name(value) in MEMO_CALLS


def unregistered_memos(path: Path) -> list:
    """Module- and class-level mappings and lru-cached functions in a source
    file that bypass the registry."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bodies = [tree.body] + [n.body for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    found = []
    for body in bodies:
        for node in body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None \
                    and _memo_shaped(node.value):
                found.append(f"{path.name}:{node.lineno} mapping")
    module = importlib.import_module(f"homkit.{path.stem}")
    registered = set(map(id, caches._LRU.values()))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                any(_name(d) in LRU_NAMES for d in node.decorator_list):
            fn = getattr(module, node.name, None)
            if fn is None or id(fn) not in registered:
                found.append(f"{path.name}:{node.lineno} lru_cache {node.name}")
    return found


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "caches.py"),
                         ids=lambda p: p.name)
def test_every_memo_is_registered(path):
    assert unregistered_memos(path) == []


def test_the_scan_sees_a_bare_memo(tmp_path):
    fake = tmp_path / "modules.py"
    fake.write_text("_MEMO: dict = {}\n\nclass A:\n    seen = dict()\n\n"
                    "from functools import lru_cache\n\n@lru_cache(maxsize=None)\n"
                    "def extra_memo(a, b):\n    return a\n")
    found = unregistered_memos(fake)
    assert [entry.split(" ", 1)[1] for entry in found] == \
        ["mapping", "mapping", "lru_cache extra_memo"]


def fill() -> None:
    """Work that writes to every registered cache."""
    u4 = module_universe(R4, 8)
    cu4 = default_complex_universe(R4, (0, 1), full_bound=2, disk_bound=4)
    y = sphere(0, Z2)
    x_injective_module(Z2, ALL, u4, keep_witnesses=False)
    x_injective_complex(y, ALL, cu4, keep_witnesses=False)
    x_injective_complex(y, ALL, cu4, keep_witnesses=True)     # and cycle presentations
    eps1_perp_homotopy(y, eps1_universe(R4, ALL), keep_witnesses=False)
    hom_complex_data(cu4.members[-1], cu4.members[-1])
    null_homotopy(ChainMap.identity(disk(0, Z2)))
    injective_hull(Z2)
    verify_precover_factorization(precover_bounded(y, ALL, u=u4), y, ALL, u4)
    x_injective_envelope(zero_complex(R4), ALL)


def test_clear_caches_empties_every_table_and_resets_counters():
    caches.clear_caches()
    fill()
    before = caches.stats()
    assert len(before) == 19 and "complexes.cycle_presentations" in before
    assert all(s["entries"] for s in before.values()), before
    assert "modules.ext1_module" not in before
    caches.clear_caches()
    after = caches.stats()
    assert set(after) == set(before)
    assert all(s == {"entries": 0, "hits": 0, "misses": 0} for s in after.values()), after
    assert hom_module.cache_info().currsize == 0


def test_counters_move_on_a_repeated_call():
    caches.clear_caches()
    ms = [Z2, FpModule(R4, (4,))]
    first = direct_sum(ms)
    assert caches.stats()["modules.direct_sum"] == {"entries": 1, "hits": 0, "misses": 1}
    assert direct_sum(ms) is first
    assert caches.stats()["modules.direct_sum"] == {"entries": 1, "hits": 1, "misses": 1}
    hom_module(Z2, Z2)
    hom_module(Z2, Z2)
    assert caches.stats()["modules.hom_module"] == {"entries": 1, "hits": 1, "misses": 1}


def test_a_failing_computation_stores_nothing():
    table = caches.Table("scratch")

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        table.lookup(1, boom)
    assert (len(table), table.misses, table.hits) == (0, 1, 0)
    assert table.lookup(1, lambda: "x") == "x" and table.lookup(1, boom) == "x"
    assert (table.misses, table.hits) == (2, 1)


def test_names_are_unique():
    with pytest.raises(ValueError):
        caches.table("modules.direct_sum")


def test_a_repeated_oracle_failure_raises_afresh():
    caches.clear_caches()
    z4 = FpModule(R4, (4,))
    u4 = module_universe(R4, 8)
    not_onto = ModuleMap.zero(z4, Z2)
    raised = []
    for _ in range(2):
        with pytest.raises(OracleHypothesisError) as info:
            _verify_oracle(z4, not_onto, ALL, u4, injective=False)
        raised.append(info.value)
    assert [str(e) for e in raised] == ["cover map is not onto"] * 2
    assert raised[0] is not raised[1] and raised[1].system == {}
    onto = ModuleMap(z4, Z2, IntMatrix.identity(1))
    for _ in range(2):
        _verify_oracle(z4, onto, ALL, u4, injective=False)


def test_a_repeated_injective_hull_is_the_same():
    caches.clear_caches()
    m = FpModule(Zmod(12), (2, 6))
    first = injective_hull(m)
    assert injective_hull(m) == first
    hull, embedding = first
    assert hull == FpModule(Zmod(12), (4, 12))
    assert embedding.source == m and embedding.target == hull and embedding.is_mono()
    with pytest.raises(ValueError):
        injective_hull(FpModule(RingSpec(0), (2,)))
