"""Homology as one sublattice module against the body it replaced.

``complexes.homology_at`` is ``modules._sublattice_module`` of C^k on the
kernel generators of d^k (``modules._kernel_generators``), with the columns
of d^(k-1) placed ahead of the relations of C^k.  That is the integer
kernel the old body built by hand, in the same column order, so every
invariant factor must equal ``helpers.homology_oracle``'s: on every complex
of a small window over Z/n, and on random three-term families over Z and
Z/n, those with d o d != 0 among them.
"""
from __future__ import annotations

import random

import pytest

from homkit.complexes import Complex, homology_at
from homkit.exactalg import ZZ, Zmod
from homkit.modules import FpModule, hom_module
from homkit.xclass import _window_complexes

from .helpers import homology_oracle, small_modules

DEGREES = range(-1, 4)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 9, 12])
def test_window_complexes_match_the_oracle(n):
    complexes = list(_window_complexes(Zmod(n), 4, (0, 2)))
    assert complexes
    for c in complexes:
        for k in DEGREES:
            assert homology_at(c, k) == homology_oracle(c, k), (c.describe(), k)


Z_MODULES = [FpModule(ZZ, f) for f in
             [(), (0,), (2,), (6,), (0, 0), (2, 0), (3, 0), (2, 4), (2, 6, 0), (0, 0, 0)]]


def random_map(rng: random.Random, src: FpModule, tgt: FpModule):
    hom = hom_module(src, tgt)
    return hom.decode([rng.randrange(f) if f else rng.randint(-9, 9) for f in hom.module.factors])


def random_family(rng: random.Random, ring, modules: list) -> Complex:
    """Three components and two random differentials, d o d not checked."""
    comps = {k: rng.choice(modules) for k in range(3)}
    diffs = {k: random_map(rng, comps[k], comps[k + 1]) for k in range(2)}
    return Complex(ring, comps, diffs, check=False)


@pytest.mark.parametrize("n", [0, 4, 6, 12, 36])
def test_random_three_term_families_match_the_oracle(n):
    rng = random.Random(n)
    ring = Zmod(n) if n else ZZ
    modules = small_modules(ring, 64) if n else Z_MODULES
    inexact = 0
    for _ in range(60):
        c = random_family(rng, ring, modules)
        inexact += not c.differential(1).compose(c.differential(0)).is_zero()
        for k in DEGREES:
            assert homology_at(c, k) == homology_oracle(c, k), (c.describe(), k)
    assert inexact
