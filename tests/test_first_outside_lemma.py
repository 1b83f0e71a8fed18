"""The first element outside a subgroup is a generator.

``FpModule.elements`` runs in product order, the last coordinate fastest,
so in G = Z/d_1 + ... + Z/d_k the elements before the unit vector e_j are
exactly span(e_(j+1)..e_k).  For a subgroup H, the first element outside H
is therefore e_j for the largest j with e_j not in H, and
``lifting._first_outside_image`` reads that j off one section solve.  The
oracle, ``helpers.first_outside_image``, walks G and projects each element
to the cokernel of H's inclusion; both must name the same element, or both
nothing, on random groups and subgroups over Z/n.
"""
from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from homkit import lifting
from homkit.exactalg import IntMatrix, Zmod
from homkit.modules import FpModule, ModuleMap, cokernel, direct_sum

from .helpers import first_outside_image

MODULI = (2, 4, 6, 8, 9, 12, 36)


def outside(image: ModuleMap, inclusion: ModuleMap):
    """``lifting._first_outside_image`` of the group ``inclusion`` embeds,
    against the image of the map ``image``."""
    return lifting._first_outside_image(image.target, image.matrix, inclusion.matrix.columns())


@st.composite
def subgroups(draw) -> ModuleMap:
    """A map from a free module onto a random subgroup H of a random
    G = Z/d_1 + ... + Z/d_k over Z/n (canonical form, at most 4096
    elements); every subgroup of G is the image of a map from (Z/n)^5."""
    n = draw(st.sampled_from(MODULI))
    ring = Zmod(n)
    divisors = [d for d in range(2, n + 1) if n % d == 0]
    cyclic = draw(st.lists(st.sampled_from(divisors), max_size=5))
    while math.prod(cyclic) > 4096:
        cyclic.pop()
    g = direct_sum([FpModule.zero(ring)] + [FpModule(ring, (d,)) for d in cyclic]).module
    ngens = draw(st.integers(0, 5))
    rows = [[draw(st.integers(0, n - 1)) for _ in range(ngens)] for _ in range(g.ngens)]
    return ModuleMap(FpModule.free(ring, ngens), g, IntMatrix.from_rows(rows, cols=ngens))


@settings(max_examples=300, deadline=None)
@given(subgroups())
def test_the_solve_names_the_enumeration_first_element_outside(image):
    cok, proj = cokernel(image)
    want = None if cok.is_zero() else first_outside_image(proj)
    assert outside(image, ModuleMap.identity(image.target)) == want


def test_the_lemma_on_a_hand_instance():
    # H = <(0, 1)> in Z/2 + Z/4: e_2 = (0, 1) lies in H and e_1 does not, so
    # (1, 0) is the first element outside, after (0, 1), (0, 2) and (0, 3)
    ring = Zmod(4)
    g = FpModule(ring, (2, 4))
    image = ModuleMap(FpModule.free(ring, 1), g, IntMatrix.from_rows([[0], [1]], cols=1))
    assert outside(image, ModuleMap.identity(g)) == (1, 0)
    assert first_outside_image(cokernel(image)[1]) == (1, 0)
    onto = ModuleMap.identity(g)
    assert outside(onto, onto) is None
