"""Induced maps between hom groups against the loop they replace.

A lifting test needs the map f -> f o phi (injective side) or f -> phi o f
(projective side) between hom groups.  ``lifting._restriction_image`` gives
it followed by the target group's inclusion into its ambient: between
chain-map groups one matrix into Hom^0 (``chain_group_image``) assembled from
memoised degreewise ``hom_precompose`` / ``hom_postcompose`` matrices, and
between hom modules the memoised composition matrix itself (the inclusion is
the identity).  The oracle is the old element-by-element ``_induced``, kept
only as a test: decode each generator, compose, encode.  The image must equal
the inclusion after the oracle bit for bit, and so must the test-only
restriction matrix of ``tests/helpers.induced_restriction``, on every
(pool map, universe member) pair.

Every pair of the four complex universes is 181,808 pairs, about three
minutes, so the Z/4, Z/6 and Z/8 universes meet every pool map with every
k-th member (k = 8, 6 and 16), the offset rotating with the pool index so
that every member is reached; the Z/9 universe runs every pair.
"""
from __future__ import annotations

import pytest

from homkit.complexes import ChainMap, chain_map_group, disk
from homkit.exactalg import IntMatrix, Zmod
from homkit.lifting import _restriction_image
from homkit.modules import FpModule, ModuleMap, hom_module, hom_postcompose, hom_precompose
from homkit.xclass import ComplexUniverse, ModuleUniverse

from .helpers import chain_group_compose, induced_restriction

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


def assert_image_is_included(parts: tuple, want: ModuleMap) -> None:
    """``lifting._restriction_image``'s image is its inclusion after the
    oracle's restriction; a zero target group has neither."""
    grp_from, grp_to, image, inclusion = parts
    if image is None:
        assert grp_to.module.is_zero() and inclusion is None
        return
    assert inclusion.source == grp_to.module
    assert_identical(image, inclusion.compose(want))


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
        restr, grp_from, grp_to, fn = induced_restriction(phi, c, injective, chain_map_group)
        want = oracle_induced(grp_from, grp_to, fn)
        assert_identical(restr, want)
        assert_image_is_included(_restriction_image(phi, c, injective, chain_map_group), want)
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
                restr, grp_from, grp_to, fn = induced_restriction(phi, c, injective, hom_module)
                want = oracle_induced(grp_from, grp_to, fn)
                assert_identical(restr, want)
                compose = hom_precompose if injective else hom_postcompose
                assert_identical(compose(grp_from, grp_to, phi), want)
                assert_image_is_included(_restriction_image(phi, c, injective, hom_module), want)
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
