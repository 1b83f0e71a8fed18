"""The cycle presentations chain-map groups share, and the work they save.

A chain-map group is the kernel of d^0: Hom^0 -> Hom^1, and many groups
have the same d^0.  ``complexes.cycle_presentations`` keeps one (cycle
module, inclusion, P_s blocks) per key: the ring, the factors of each Hom^0
summand, Hom^1's factors and the reduced d^0 rows.  Equal factors and rows
over different rings, and equal sums split into different summands, must
get different entries; a group built from a hit must equal one built with
the table cleared; groups build no hom complex; and the restriction images,
which build no ``ModuleMap``, still run its well-definedness check.
"""
from __future__ import annotations

import pytest

from homkit import caches, complexes
from homkit.complexes import (
    ChainMap,
    Complex,
    _cycle_blocks,
    chain_group_image,
    chain_map_group,
    sphere,
)
from homkit.exactalg import IntMatrix, Zmod
from homkit.lifting import x_injective_complex
from homkit.modules import FpModule, ModuleError, ModuleMap, _checked_rows
from homkit.xclass import ALL

from .test_cycle_blocks_differential import warm_slice


def group_record(grp) -> tuple:
    """Everything a chain-map group reads its elements and images from."""
    inclusion = None if grp._inclusion is None else \
        (grp._inclusion.source, grp._inclusion.target, grp._inclusion.matrix)
    return grp.module, inclusion, grp._blocks, None if grp._inclusion is None else grp._pair_blocks


def test_the_ring_is_in_the_key():
    # Hom(Z/2, Z/2) = Z/2 with no Hom^1 over Z/4 and over Z/6: equal summand
    # factors, target factors and rows
    groups = []
    for n in (4, 6):
        z2 = FpModule(Zmod(n), (2,))
        groups.append(chain_map_group(sphere(0, z2), sphere(0, z2)))
    caches.clear_caches()
    assert [g.module for g in groups] == [FpModule(Zmod(4), (2,)), FpModule(Zmod(6), (2,))]
    for n in (4, 6):
        z2 = FpModule(Zmod(n), (2,))
        grp = chain_map_group(sphere(0, z2), sphere(0, z2))
        assert grp.module.ring == Zmod(n) and grp._inclusion.source.ring == Zmod(n)
        assert grp.decode((1,)).component(0) == ModuleMap.identity(z2)
    assert caches.stats()["complexes.cycle_presentations"]["misses"] == 2


def test_the_summand_split_is_in_the_key():
    # over Z/6, Hom^0 of [Z/2, Z/3] (zero differential) to itself is
    # Z/2 + Z/3, and of sphere(0, Z/6) to itself Z/6: the same sum, Z/6, with
    # no Hom^1 either way, split into two summands or one
    ring = Zmod(6)
    z2, z3, z6 = (FpModule(ring, (d,)) for d in (2, 3, 6))
    split = Complex(ring, {0: z2, 1: z3}, {})
    caches.clear_caches()
    two = chain_map_group(split, split)
    one = chain_map_group(sphere(0, z6), sphere(0, z6))
    assert two._hom0.sum.module == one._hom0.sum.module
    assert (len(two._hom0.blocks), len(one._hom0.blocks)) == (2, 1)
    assert caches.stats()["complexes.cycle_presentations"]["misses"] == 2
    for grp in (two, one):
        assert grp._blocks == _cycle_blocks(grp._hom0.sum, grp._inclusion)
    assert one.decode((1,)).component(0) == ModuleMap.identity(z6)
    assert two.decode((1,)).component(1) == ModuleMap(z3, z3, IntMatrix.from_rows([[2]]))


@pytest.mark.parametrize("n", [4, 6])
def test_a_group_from_a_hit_equals_a_fresh_one(n):
    caches.clear_caches()
    cu, eu, _, inputs = warm_slice(n)
    pairs = [(m, c) for c in inputs for m in cu.members + eu.members]
    groups = [chain_map_group(a, b) for a, b in pairs]
    assert caches.stats()["complexes.cycle_presentations"]["hits"] > 0
    for (a, b), grp in zip(pairs, groups):
        complexes._CYCLE_PRESENTATIONS.clear()
        fresh = complexes._chain_map_group(a, b)
        assert group_record(fresh) == group_record(grp)


@pytest.mark.parametrize("n", [4, 6])
def test_groups_build_no_hom_complex_and_share_their_cycles(n, monkeypatch):
    calls = []
    build = complexes.hom_complex_data
    monkeypatch.setattr(complexes, "hom_complex_data",
                        lambda *args, **kwargs: calls.append(args) or build(*args, **kwargs))
    caches.clear_caches()
    cu, _, _, inputs = warm_slice(n)
    for c in inputs:
        x_injective_complex(c, ALL, cu, keep_witnesses=True)
    stats = caches.stats()
    assert calls == []
    assert 0 < stats["complexes.cycle_presentations"]["misses"] < \
        stats["complexes.chain_map_group"]["misses"]


def test_an_ill_defined_image_row_raises_as_a_module_map_does(monkeypatch):
    # Z/2 -> Z/4 by 1 is not well defined: 2 * 1 survives mod 4
    ring = Zmod(4)
    z2, z4 = FpModule(ring, (2,)), FpModule(ring, (4,))
    with pytest.raises(ModuleError) as by_map:
        ModuleMap(z2, z4, IntMatrix.from_rows([[1]]))
    with pytest.raises(ModuleError) as by_rows:
        _checked_rows(z2.factors, z4.factors, [[1]])
    assert str(by_rows.value) == str(by_map.value)
    # the image path checks the rows it assembles: restricting along
    # phi: sphere(0, Z/4) -> sphere(0, Z/2) maps Hom(Z/2, Z/4) = Z/2 into
    # Hom(Z/4, Z/4) = Z/4; feed it the row that is not well defined
    s2, s4 = sphere(0, z2), sphere(0, z4)
    phi = ChainMap(s4, s2, {0: ModuleMap(z4, z2, IntMatrix.from_rows([[1]]))})
    g_from, g_to = chain_map_group(s2, s4), chain_map_group(s4, s4)
    assert (g_from.module, g_to._inclusion.target) == (z2, z4)
    assert chain_group_image(g_from, g_to, phi, True) == IntMatrix.from_rows([[2]])
    monkeypatch.setattr(complexes, "_block_rows", lambda *args: [[1]])
    with pytest.raises(ModuleError) as by_image:
        chain_group_image(g_from, g_to, phi, True)
    assert str(by_image.value) == str(by_map.value)
