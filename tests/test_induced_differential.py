"""Induced maps between hom groups against the loop they replace.

A lifting test needs the map f -> f o phi (injective side) or f -> phi o f
(projective side) between hom groups.  Between chain-map groups it is now one
matrix assembled from memoised degreewise ``hom_precompose`` /
``hom_postcompose`` matrices, solved against the target group's inclusion
with one elimination; between hom modules it is the memoised composition
matrix.  The oracle is the old element-by-element ``_induced``, kept only as
a test: decode each generator, compose, encode.  Both must give the same
matrix bit for bit on every (pool map, universe member) pair.

Every pair of the four complex universes is 181,808 pairs, about three
minutes, so the Z/4, Z/6 and Z/8 universes meet every pool map with every
k-th member (k = 8, 6 and 16), the offset rotating with the pool index so
that every member is reached; the Z/9 universe runs every pair.
"""
from __future__ import annotations

import pytest

from homkit.complexes import ChainMap, chain_group_compose, chain_map_group, disk
from homkit.exactalg import IntMatrix, Zmod
from homkit.lifting import _induced_restriction
from homkit.modules import FpModule, ModuleMap, hom_module
from homkit.xclass import ComplexUniverse, ModuleUniverse

# (modulus, disk bound, member stride): the universes of
# tests/test_pool_differential.py
UNIVERSES = [(4, 4, 8), (6, 6, 6), (8, 8, 16), (9, 9, 1)]


def oracle_induced(grp_from, grp_to, fn) -> ModuleMap:
    """The map grp_from.module -> grp_to.module sending each generator's map
    to fn of it, decoded, composed and encoded one generator at a time."""
    cols = []
    for k in range(grp_from.module.ngens):
        elem = tuple(1 if t == k else 0 for t in range(grp_from.module.ngens))
        coords = grp_to.encode(fn(grp_from.decode(elem)))
        if coords is None:
            raise AssertionError("composite escaped the chain-map group")
        cols.append(coords)
    return ModuleMap(grp_from.module, grp_to.module,
                     IntMatrix.from_columns(cols, rows=grp_to.module.ngens))


def assert_identical(got: ModuleMap, want: ModuleMap) -> None:
    assert (got.source, got.target) == (want.source, want.target)
    assert got.matrix == want.matrix


def pairs(pool: list, members: list, stride: int):
    for idx, (phi, _) in enumerate(pool):
        for c in members[idx % stride::stride]:
            yield phi, c


@pytest.mark.parametrize("injective", [True, False], ids=["mono", "epi"])
@pytest.mark.parametrize("n,disk_bound,stride", UNIVERSES)
def test_chain_group_induced_matches_oracle(n, disk_bound, stride, injective):
    cu = ComplexUniverse(Zmod(n), full_bound=4, full_window=(0, 1),
                         disk_bound=disk_bound, disk_degrees=(-1, 0))
    pool = cu.mono_pool() if injective else cu.epi_pool()
    checked = nonzero = 0
    for phi, c in pairs(pool, cu.members, stride):
        restr, grp_from, grp_to, fn = _induced_restriction(phi, c, injective, chain_map_group)
        assert_identical(restr, oracle_induced(grp_from, grp_to, fn))
        checked += 1
        nonzero += not restr.is_zero()
    assert checked >= len(pool) and nonzero


@pytest.mark.parametrize("injective", [True, False], ids=["mono", "epi"])
@pytest.mark.parametrize("n,bound", [(n, b) for n, b, _ in UNIVERSES])
def test_hom_module_induced_matches_oracle(n, bound, injective):
    u = ModuleUniverse(Zmod(n), bound)
    pool = u.mono_pool() if injective else u.epi_pool()
    nonzero = 0
    for phi, _ in pool:
        for c in u.members:
            # the second call reads the memoised matrix
            for _ in range(2):
                restr, grp_from, grp_to, fn = _induced_restriction(phi, c, injective, hom_module)
                assert_identical(restr, oracle_induced(grp_from, grp_to, fn))
            nonzero += not restr.is_zero()
    assert nonzero


@pytest.mark.parametrize("pre", [True, False], ids=["precompose", "postcompose"])
def test_composite_outside_the_group_is_refused(pre):
    # phi is the identity in degree 0 and zero in degree 1 on disk(0, Z/4),
    # so it does not commute and neither does its composite with the identity
    ring = Zmod(4)
    d = disk(0, FpModule(ring, (4,)))
    phi = ChainMap(d, d, {0: ModuleMap.identity(d.component(0))}, check=False)
    grp = chain_map_group(d, d)
    fn = (lambda f: f.compose(phi)) if pre else phi.compose
    with pytest.raises(AssertionError, match="escaped"):
        oracle_induced(grp, grp, fn)
    with pytest.raises(AssertionError, match="escaped"):
        chain_group_compose(grp, grp, phi, pre)
