"""Module-universe pools against the generate-and-filter path they replace.

The oracle is the old pool code, kept only as a test: it decodes every
element of Hom(a, b) into a ``ModuleMap`` through ``enumerate_monos`` or
``enumerate_epis``, keys each image or kernel by applying the map to every
source element, and keeps the enumeration-first map per key.
``ModuleUniverse`` pools must match it entry for entry: same order, same
source, target and matrix, and the same cokernel or kernel.
"""
from __future__ import annotations

import pytest

from homkit.exactalg import Zmod
from homkit.modules import cokernel, kernel
from homkit.xclass import ModuleUniverse, enumerate_epis, enumerate_monos


def oracle_mono_pool(u: ModuleUniverse) -> list:
    pool = []
    for b in u.members:
        seen = set()
        for a in u.members:
            if a.is_zero():
                continue
            for f in enumerate_monos(a, b):
                img = frozenset(f.apply(x) for x in a.elements())
                if img not in seen:
                    seen.add(img)
                    pool.append((f, cokernel(f)[0]))
    return pool


def oracle_epi_pool(u: ModuleUniverse) -> list:
    pool = []
    for a in u.members:
        seen = set()
        for b in u.members:
            if b.is_zero():
                continue
            for f in enumerate_epis(a, b):
                zero = b.reduce_element([0] * b.ngens)
                ker = frozenset(x for x in a.elements() if f.apply(x) == zero)
                if ker not in seen:
                    seen.add(ker)
                    pool.append((f, kernel(f).sub))
    return pool


def entries(pool: list) -> list:
    return [(f.source, f.target, f.matrix, q) for f, q in pool]


RINGS = [(2, 8), (4, 8), (6, 8), (8, 8), (9, 9), (12, 12)]


@pytest.mark.parametrize("n,bound", RINGS)
def test_mono_pool_matches_oracle(n, bound):
    u = ModuleUniverse(Zmod(n), bound)
    pool = u.mono_pool()
    assert pool
    assert entries(pool) == entries(oracle_mono_pool(u))


@pytest.mark.parametrize("n,bound", RINGS)
def test_epi_pool_matches_oracle(n, bound):
    u = ModuleUniverse(Zmod(n), bound)
    pool = u.epi_pool()
    assert pool
    assert entries(pool) == entries(oracle_epi_pool(u))
