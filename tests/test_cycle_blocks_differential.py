"""Chain-map groups read through their cycle inclusion in block coordinates,
against the full-width paths they replace.

A ``ChainMapGroup`` keeps P_s = projection s o cycle inclusion for each block
s of Hom^0 (``complexes._cycle_blocks``, built once per d^0), and three
readers use it: ``chain_group_image`` (one product per block, no
Inj @ Big @ Proj @ inclusion), the generator rows ``ChainMapGroup._rows``
(from_canonical @ P_s, no ``ModuleMap.apply`` per block) and, with the
projections for P_s, every differential of ``hom_complex_data``.  The
oracles in ``tests/helpers.py`` are the old paths: ``block_sum_oracle``,
``hom_complex_data_oracle``, ``chain_map_group_oracle``,
``chain_group_rows_oracle`` and ``chain_group_image_oracle``.  Images,
generator rows, differentials, group factors and inclusions must agree bit
for bit on every (pool entry, member) pair of the pool universes and every
(pool entry, input) and (member, input) pair of a warm-checks slice, and a
slice of certified checks must build P_s once per distinct d^0 (a miss of
``complexes.cycle_presentations``), and no source group of a restriction
into a zero group.
"""
from __future__ import annotations

import random

import pytest

from homkit import caches, complexes, lifting
from homkit.complexes import chain_group_image, chain_map_group, disk, hom_complex_data
from homkit.exactalg import IntMatrix, Zmod
from homkit.lifting import dg_x_injective, eps1_perp_homotopy, x_injective_complex
from homkit.modules import FpModule, _checked_rows
from homkit.xclass import ALL, default_complex_universe, eps1_universe, module_universe

from .helpers import (
    chain_group_image_oracle,
    chain_group_rows_oracle,
    chain_map_group_oracle,
    hom_complex_data_oracle,
    random_complex,
    small_modules,
)
from .test_pool_differential import UNIVERSES, fresh_universe


def restriction_groups(phi, obj, injective: bool) -> tuple:
    """(source group, target group) of the restriction a lifting test of obj
    along phi reads, as ``lifting._restriction_image`` takes them."""
    if injective:
        return chain_map_group(phi.target, obj), chain_map_group(phi.source, obj)
    return chain_map_group(obj, phi.source), chain_map_group(obj, phi.target)


def hom_key(data) -> tuple:
    return data.complex.canonical_key(), {n: d.blocks for n, d in data.degrees.items()}


def d0_rows(grp) -> tuple:
    """The reduced rows of d^0 from the group's Hom^0 into Hom^1, as
    ``complexes._chain_map_group`` reads the cycles from them: () without
    Hom^1."""
    hom1 = complexes._hom_degree(grp.source, grp.target, 1)
    if hom1 is None:
        return ()
    rows = complexes._differential_rows(grp.source, grp.target, grp._hom0, hom1)
    return _checked_rows(grp._hom0.sum.module.factors, hom1.sum.module.factors, rows)


class Compared:
    """The comparisons made so far, each distinct group and complex pair
    once, with counts that show the paths were exercised."""

    def __init__(self):
        self.groups, self.homs = set(), set()
        self.nonzero_images = self.multi_block = 0

    def hom(self, a, b) -> None:
        key = (a.canonical_key(), b.canonical_key())
        if key not in self.homs:
            self.homs.add(key)
            assert hom_key(hom_complex_data(a, b)) == hom_key(hom_complex_data_oracle(a, b))

    def group(self, grp) -> None:
        key = (grp.source.canonical_key(), grp.target.canonical_key())
        if key in self.groups:
            return
        self.groups.add(key)
        module, inclusion = chain_map_group_oracle(grp.source, grp.target)
        assert grp.module.factors == module.factors
        assert (grp._inclusion is None) == (inclusion is None)
        if inclusion is not None:
            assert (grp._inclusion.source, grp._inclusion.target, grp._inclusion.matrix) == \
                (inclusion.source, inclusion.target, inclusion.matrix)
        # Hom^0 is the oracle's degree 0, and the d^0 rows the cycles come
        # from are the oracle's d^0
        want = hom_complex_data_oracle(grp.source, grp.target, degrees=(0, 1))
        assert (grp._hom0 is None) == (0 not in want.degrees)
        if grp._hom0 is not None:
            assert grp._hom0.blocks == want.degrees[0].blocks
            assert d0_rows(grp) == want.complex.differential(0).matrix.entries
        ngens = grp.module.ngens
        # every generator, and an element whose coordinates wrap its factors
        elems = [tuple(int(t == g) for t in range(ngens)) for g in range(ngens)]
        elems.append(tuple(d + 1 for d in grp.module.factors))
        for elem in elems:
            assert grp._rows(elem) == chain_group_rows_oracle(grp, elem)
        self.multi_block += inclusion is not None and len(grp._hom0.blocks) > 1

    def image(self, phi, obj, injective: bool) -> None:
        g_from, g_to = restriction_groups(phi, obj, injective)
        self.group(g_from)
        self.group(g_to)
        if g_to.module.is_zero():
            return
        got = chain_group_image(g_from, g_to, phi, injective)
        if g_from._inclusion is None:
            assert got == IntMatrix.zero(g_to._inclusion.target.ngens, 0)
            return
        want = chain_group_image_oracle(g_from, g_to, phi, injective)
        assert want.source == g_from.module and want.target == g_to._inclusion.target
        assert got == want.matrix
        self.nonzero_images += not got.is_zero()


@pytest.mark.parametrize("n,disk_bound", UNIVERSES)
def test_pool_universes_match_the_full_width_paths(n, disk_bound):
    cu = fresh_universe(n, disk_bound)
    seen = Compared()
    entries = [(phi, True) for phi, _ in cu.mono_pool()] + \
        [(psi, False) for psi, _ in cu.epi_pool()]
    for phi, injective in entries:
        for obj in cu.members:
            seen.image(phi, obj, injective)
    # Hom^0 of several blocks is where block coordinates differ from one
    assert seen.nonzero_images and seen.multi_block


def warm_slice(n: int) -> tuple:
    """The universes of the warm-checks benchmark for Z/n (complex universe
    on supports (0, 1), exactness universe, module universe) and a slice of
    its inputs: the disks on the free module in degrees 0 and 1 and four
    seeded two-degree complexes of components with at most 8 elements."""
    ring = Zmod(n)
    cu = default_complex_universe(ring, (0, 1), full_bound=4, disk_bound=4)
    eu = eps1_universe(ring, ALL, base_bound=4, window=(-1, 1))
    mu = module_universe(ring, 8)
    free = FpModule.free(ring, 1)
    rng = random.Random(n)
    members = [m for m in small_modules(ring, 8) if not m.is_zero()]
    inputs = [disk(0, free), disk(1, free)] + \
        [random_complex(rng, ring, members, max_degrees=2, lo_range=(0, 0)) for _ in range(4)]
    return cu, eu, mu, inputs


@pytest.mark.parametrize("n", [4, 6])
def test_warm_checks_slice_matches_the_full_width_paths(n):
    cu, eu, _, inputs = warm_slice(n)
    seen = Compared()
    for c in inputs:
        for phi, _ in cu.mono_pool():
            seen.image(phi, c, True)
        for m in cu.members + eu.members:
            seen.group(chain_map_group(m, c))
            seen.hom(m, c)
    assert seen.nonzero_images and seen.multi_block


@pytest.mark.parametrize("n", [4, 6])
def test_cycle_blocks_are_built_once_per_chain_map_group(n, monkeypatch):
    built, images = [], []
    build, image = complexes._cycle_blocks, lifting.chain_group_image

    def counted_build(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(complexes, "_cycle_blocks", counted_build)
    monkeypatch.setattr(lifting, "chain_group_image",
                        lambda *args: images.append(args) or image(*args))
    caches.clear_caches()
    cu, eu, mu, inputs = warm_slice(n)
    for c in inputs:
        x_injective_complex(c, ALL, cu, keep_witnesses=True)
        eps1_perp_homotopy(c, eu, keep_witnesses=True)
        dg_x_injective(c, ALL, eu, mu=mu, keep_witnesses=True)
    groups = list(complexes._CHAIN_GROUP_CACHE.values())
    with_cycles = [g for g in groups if g._inclusion is not None]
    presentations = list(complexes._CYCLE_PRESENTATIONS.values())
    # one build per miss of the group table, and one P_s per miss of the
    # cycle table, held by the groups with cycles (fewer than those groups:
    # they share their d^0); the restriction images, more than their source
    # groups, read it and do not multiply it again
    assert caches.stats()["complexes.chain_map_group"]["misses"] == len(groups)
    assert caches.stats()["complexes.cycle_presentations"]["misses"] == len(presentations)
    assert sorted(map(id, built)) == sorted(id(blocks) for _, _, blocks in presentations)
    assert set(map(id, built)) == {id(g._blocks) for g in with_cycles}
    assert len(built) < len(with_cycles)
    assert len(images) > len({id(args[0]) for args in images}) > 0


@pytest.mark.parametrize("n", [4, 6])
def test_zero_target_groups_build_no_source_group(n, monkeypatch):
    # a restriction into a zero group is onto without its source group;
    # building it anyway, as the restriction once did, must only add misses
    def run() -> tuple:
        caches.clear_caches()
        cu, eu, mu, inputs = warm_slice(n)
        answers = [(x_injective_complex(c, ALL, cu, keep_witnesses=True),
                    eps1_perp_homotopy(c, eu, keep_witnesses=True),
                    dg_x_injective(c, ALL, eu, mu=mu, keep_witnesses=True)) for c in inputs]
        return answers, caches.stats()["complexes.chain_map_group"]["misses"]

    answers, misses = run()
    restriction = lifting._restriction_image

    def with_source_group(phi, obj, injective, hom):
        hom(phi.target, obj) if injective else hom(obj, phi.source)
        return restriction(phi, obj, injective, hom)

    monkeypatch.setattr(lifting, "_restriction_image", with_source_group)
    old_answers, old_misses = run()
    assert answers == old_answers
    assert misses < old_misses
