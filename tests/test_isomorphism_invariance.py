"""Verdicts are invariant under isomorphism of the checked complex.

Each two-degree complex over Z/4 and Z/6 (components of at most four
elements, the first three differentials of each pair of components in
enumeration order) gets four twisted copies, d^k -> a_{k+1} d^k a_k^-1 for
random automorphisms a_k.  The witness-free verdicts of the five complex
checkers must agree on ``holds`` and ``checked`` across the copies, and a
counterexample must name the same universe map, exactness member or
component degree.  This guards every memo keyed by a canonical key: an
isomorphic copy has a different key, so it is computed afresh.
"""
from __future__ import annotations

import random

import pytest

from homkit import clear_caches
from homkit.complexes import Complex
from homkit.exactalg import Zmod
from homkit.lifting import (
    dg_x_injective,
    dg_x_projective,
    eps1_perp_homotopy,
    x_injective_complex,
    x_projective_complex,
)
from homkit.modules import hom_module
from homkit.xclass import ALL, default_complex_universe, eps1_universe, module_universe

from .helpers import small_modules, twisted_copy

COPIES = 4


def two_degree_complexes(ring) -> list:
    members = [m for m in small_modules(ring, 4) if not m.is_zero()]
    out = []
    for m0 in members:
        for m1 in members:
            hm = hom_module(m0, m1)
            for elem in list(hm.module.elements())[:3]:
                out.append(Complex(ring, {0: m0, 1: m1}, {0: hm.decode(elem)}))
    return out


def named(counterexample):
    """What a counterexample names that does not depend on the copy."""
    if counterexample is None:
        return None
    return tuple((key, value) for key, value in sorted(counterexample.items())
                 if key in ("kind", "mono", "epi", "member", "degree"))


@pytest.mark.parametrize("n", [4, 6])
def test_verdicts_are_invariant_under_twisted_copies(n):
    ring = Zmod(n)
    cu = default_complex_universe(ring, (0, 1), full_bound=2, disk_bound=4)
    eu, mu = eps1_universe(ring, ALL), module_universe(ring, 8)
    checkers = {
        "x-injective": lambda c: x_injective_complex(c, ALL, cu, keep_witnesses=False),
        "x-projective": lambda c: x_projective_complex(c, ALL, cu, keep_witnesses=False),
        "eps1-perp": lambda c: eps1_perp_homotopy(c, eu, keep_witnesses=False),
        "dg-injective": lambda c: dg_x_injective(c, ALL, eu, mu, keep_witnesses=False),
        "dg-projective": lambda c: dg_x_projective(c, ALL, eu, mu, keep_witnesses=False),
    }
    rng = random.Random(n)
    clear_caches()
    outcomes, twisted = set(), 0
    for c in two_degree_complexes(ring):
        copies = [twisted_copy(rng, c) for _ in range(COPIES)]
        twisted += sum(copy.canonical_key() != c.canonical_key() for copy in copies)
        for name, check in checkers.items():
            first = check(c)
            outcomes.add((name, first.holds))
            for copy in copies:
                v = check(copy)
                assert (v.holds, v.checked, named(v.counterexample)) == \
                    (first.holds, first.checked, named(first.counterexample)), (name, c, copy)
    # some copies differ from their complex, and the checks both pass and
    # fail on these inputs
    assert twisted
    assert ("x-injective", True) in outcomes and ("x-injective", False) in outcomes
