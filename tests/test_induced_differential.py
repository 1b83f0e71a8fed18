"""Induced maps between hom groups against the loop they replace.

A lifting test needs the map f -> f o phi (injective side) or f -> phi o f
(projective side) between hom groups.  ``lifting._restriction_image`` gives
it followed by the target group's inclusion into its ambient: between
chain-map groups one matrix into Hom^0 (``chain_group_image``) assembled from
memoised degreewise ``hom_precompose`` / ``hom_postcompose`` matrices, and
between hom modules the memoised composition matrix itself (the inclusion is
the identity), which is computed in closed form from the pair coordinates.
The oracle is the old element-by-element ``modules._induced``, kept only as
``tests/helpers.induced_oracle``: decode each generator, compose, encode.
The image must equal the inclusion after the oracle bit for bit, and so must
the test-only restriction matrix of ``tests/helpers.induced_restriction``,
on every (pool map, universe member) pair; the composition matrices must
equal it on random maps between random modules over Z/n and over Z too.

Every pair of the four complex universes is 181,808 pairs, about three
minutes, so the Z/4, Z/6 and Z/8 universes meet every pool map with every
k-th member (k = 8, 6 and 16), the offset rotating with the pool index so
that every member is reached; the Z/9 universe runs every pair.
"""
from __future__ import annotations

import random

import pytest

from homkit.complexes import ChainMap, chain_map_group, disk
from homkit.exactalg import ZZ, Zmod
from homkit.lifting import _restriction_image
from homkit.modules import FpModule, ModuleMap, hom_module, hom_postcompose, hom_precompose
from homkit.xclass import ComplexUniverse, ModuleUniverse

from .helpers import chain_group_compose, induced_oracle, induced_restriction, small_modules

# (modulus, disk bound, member stride): the universes of
# tests/test_pool_differential.py
UNIVERSES = [(4, 4, 8), (6, 6, 6), (8, 8, 16), (9, 9, 1)]


def assert_identical(got: ModuleMap, want: ModuleMap) -> None:
    assert (got.source, got.target) == (want.source, want.target)
    assert got.matrix == want.matrix


def assert_image_is_included(parts: tuple, want: ModuleMap) -> None:
    """``lifting._restriction_image``'s image is the target group's
    inclusion after the oracle's restriction: a map for hom modules, its
    reduced matrix for chain-map groups; a zero target group has none."""
    grp_to, image = parts
    if image is None:
        assert grp_to.module.is_zero()
        return
    inclusion = grp_to._inclusion
    assert inclusion.source == grp_to.module
    if isinstance(image, ModuleMap):
        assert_identical(image, inclusion.compose(want))
    else:
        assert image == inclusion.compose(want).matrix


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
        want = induced_oracle(grp_from, grp_to, fn)
        assert_identical(restr, want)
        assert_image_is_included(_restriction_image(phi, c, injective, chain_map_group), want)
        checked += 1
        nonzero += not restr.is_zero()
    assert checked >= len(pool) and nonzero


@pytest.mark.parametrize("injective", [True, False], ids=["mono", "epi"])
@pytest.mark.parametrize("n,bound", [(n, b) for n, b, _ in UNIVERSES] + [(2, 8), (12, 8)])
def test_hom_module_induced_matches_oracle(n, bound, injective):
    u = ModuleUniverse(Zmod(n), bound)
    pool = u.mono_pool() if injective else u.epi_pool()
    nonzero = 0
    for phi, _ in pool:
        for c in u.members:
            # the second call reads the memoised matrix
            for _ in range(2):
                restr, grp_from, grp_to, fn = induced_restriction(phi, c, injective, hom_module)
                want = induced_oracle(grp_from, grp_to, fn)
                assert_identical(restr, want)
                compose = hom_precompose if injective else hom_postcompose
                assert_identical(compose(grp_from, grp_to, phi), want)
                assert_image_is_included(_restriction_image(phi, c, injective, hom_module), want)
            nonzero += not restr.is_zero()
    assert nonzero


# modules over Z: free factors (pairs of scale 1 and order 0) and torsion
# into free (order-1 pairs, which have no coordinate)
Z_MODULES = [(), (0,), (2,), (6,), (2, 0), (0, 0), (2, 6), (3, 0), (2, 2, 0)]


def random_map(rng: random.Random, source: FpModule, target: FpModule) -> ModuleMap:
    """An arbitrary map source -> target: a random element of their hom
    module, a free coordinate drawn from [-3, 3]."""
    hm = hom_module(source, target)
    return hm.decode([rng.randrange(d) if d else rng.randint(-3, 3) for d in hm.module.factors])


@pytest.mark.parametrize("pre", [True, False], ids=["precompose", "postcompose"])
@pytest.mark.parametrize("n", [0, 2, 4, 6, 8, 9, 12])
def test_composition_matrices_match_oracle_on_arbitrary_maps(n, pre):
    """The closed-form ``hom_precompose`` / ``hom_postcompose`` matrices equal
    the decode-compose-encode oracle on random maps between random modules
    (not only universe pool maps), over Z/n and, for n = 0, over Z."""
    ring = ZZ if n == 0 else Zmod(n)
    mods = [FpModule(ring, f) for f in Z_MODULES] if n == 0 else small_modules(ring, 16)
    rng = random.Random(n)
    nonzero = 0
    for _ in range(200):
        a, b, c = (rng.choice(mods) for _ in range(3))
        # pre: Hom(a, c) -> Hom(b, c) by f -> f o phi, phi: b -> a;
        # post: Hom(c, a) -> Hom(c, b) by f -> phi o f, phi: a -> b
        phi = random_map(rng, b, a) if pre else random_map(rng, a, b)
        h_from, h_to = (hom_module(a, c), hom_module(b, c)) if pre \
            else (hom_module(c, a), hom_module(c, b))
        fn = (lambda f: f.compose(phi)) if pre else phi.compose
        got = (hom_precompose if pre else hom_postcompose)(h_from, h_to, phi)
        assert_identical(got, induced_oracle(h_from, h_to, fn))
        nonzero += not got.is_zero()
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
        induced_oracle(grp, grp, fn)
    with pytest.raises(AssertionError, match="escaped"):
        chain_group_compose(grp, grp, phi, pre)
