"""Complex-universe pools against the generate-and-filter path they replace.

The oracle here is the old enumeration, kept only as a test: it decodes
every element of each chain-map group, decides injectivity and surjectivity
of every component by counting elements, and keys images and kernels by
applying the decoded maps to every element of the source.  It prunes pairs
by component size only.  ``ComplexUniverse`` pools must match it entry for
entry: same order, same maps and same cokernel or kernel complexes.
"""
from __future__ import annotations

import random

import pytest

from homkit.complexes import (
    ChainMap,
    chain_map_group,
    complex_isomorphic,
    mapping_cone,
)
from homkit.exactalg import Zmod
from homkit.xclass import ComplexUniverse, cokernel_complex, kernel_complex

from .helpers import random_chain_map, random_complex, small_modules


def _zero(m) -> tuple:
    return m.reduce_element([0] * m.ngens)


def _mono_by_elements(f) -> bool:
    return sum(1 for x in f.source.elements() if f.apply(x) == _zero(f.target)) == 1


def _epi_by_elements(f) -> bool:
    return len({f.apply(x) for x in f.source.elements()}) == f.target.size()


def _sizes_fit(a, b) -> bool:
    return all(a.component(k).size() <= b.component(k).size() for k in a.degrees())


def oracle_mono_pool(cu: ComplexUniverse) -> list:
    pool = []
    for b in cu.members:
        seen = set()
        for a in cu.members:
            if a.is_zero() or not _sizes_fit(a, b):
                continue
            for phi in chain_map_group(a, b).elements():
                if not all(_mono_by_elements(phi.component(k)) for k in a.degrees()):
                    continue
                img = tuple(sorted(
                    (k, tuple(sorted(phi.component(k).apply(x)
                                     for x in a.component(k).elements())))
                    for k in a.degrees()))
                if img not in seen:
                    seen.add(img)
                    pool.append((phi, cokernel_complex(phi)))
    return pool


def oracle_epi_pool(cu: ComplexUniverse) -> list:
    pool = []
    for a in cu.members:
        seen = set()
        for b in cu.members:
            if b.is_zero() or not _sizes_fit(b, a):
                continue
            for psi in chain_map_group(a, b).elements():
                if not all(_epi_by_elements(psi.component(k)) for k in b.degrees()):
                    continue
                kerkey = tuple(
                    (k, tuple(sorted(x for x in a.component(k).elements()
                                     if psi.component(k).apply(x) == _zero(b.component(k)))))
                    for k in a.degrees())
                if kerkey not in seen:
                    seen.add(kerkey)
                    pool.append((psi, kernel_complex(psi)))
    return pool


def oracle_isomorphic(a, b) -> bool:
    if a.degrees() != b.degrees():
        return False
    if any(a.component(k).factors != b.component(k).factors for k in a.degrees()):
        return False
    return any(all(_mono_by_elements(f.component(k)) and _epi_by_elements(f.component(k))
                   for k in a.degrees())
               for f in chain_map_group(a, b).elements())


def keys(pool: list) -> list:
    return [(f.canonical_key(), c.canonical_key()) for f, c in pool]


# (modulus, disk bound): small enough that the oracle stays quick
UNIVERSES = [(4, 4), (6, 6), (8, 8), (9, 9)]


def fresh_universe(n: int, disk_bound: int) -> ComplexUniverse:
    return ComplexUniverse(Zmod(n), full_bound=4, full_window=(0, 1),
                           disk_bound=disk_bound, disk_degrees=(-1, 0))


@pytest.mark.parametrize("n,disk_bound", UNIVERSES)
def test_mono_pool_matches_oracle(n, disk_bound):
    cu = fresh_universe(n, disk_bound)
    pool = cu.mono_pool()
    assert pool
    assert keys(pool) == keys(oracle_mono_pool(cu))


@pytest.mark.parametrize("n,disk_bound", UNIVERSES)
def test_epi_pool_matches_oracle(n, disk_bound):
    cu = fresh_universe(n, disk_bound)
    pool = cu.epi_pool()
    assert pool
    assert keys(pool) == keys(oracle_epi_pool(cu))


@pytest.mark.parametrize("n", [4, 6, 9])
def test_complex_isomorphic_matches_oracle_on_cones(n):
    ring = Zmod(n)
    rng = random.Random(n)
    members = small_modules(ring, 4)
    seen = {True: 0, False: 0}
    for _ in range(6):
        x = random_complex(rng, ring, members, max_degrees=2)
        y = random_complex(rng, ring, members, max_degrees=2)
        f, g = random_chain_map(rng, x, y), random_chain_map(rng, x, y)
        pairs = [(mapping_cone(f)[0], mapping_cone(other)[0])
                 for other in (ChainMap.identity(y).compose(f), g, ChainMap.zero(x, y))]
        # the cone of an identity is exact, the cone of zero is not
        pairs.append((mapping_cone(ChainMap.identity(y))[0],
                      mapping_cone(ChainMap.zero(y, y))[0]))
        for c1, c2 in pairs:
            got = complex_isomorphic(c1, c2)
            assert got == oracle_isomorphic(c1, c2)
            seen[got] += 1
    assert seen[True] and seen[False]
