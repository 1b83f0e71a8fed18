"""The window enumerator against the loops it replaced.

``ComplexUniverse.members`` and ``Eps1Universe.members`` read their
fully enumerated complexes from ``xclass._window_complexes``, which prunes a
differential tuple as soon as one d o d is nonzero.  The functions below
are the previous loops, kept as the oracle: every differential tuple of
``old_all_differential_tuples`` filtered afterwards.  Both must list the
same complexes in the same order.

``Eps1Universe.members`` walks the window exact (``exact=True``): it takes
a differential only when its image order keeps the complex exact.  On two
universes with many complexes that are not exact, the exact walk must list
the exact complexes of the unpruned walk, and the members must be the
unpruned walk filtered by ``_qualifies``, in order, under three classes.
"""
from __future__ import annotations

from itertools import product as iproduct

import pytest

from homkit.complexes import Complex, disk, exact_at, sphere, zero_complex
from homkit.exactalg import Zmod
from homkit.modules import hom_module
from homkit.xclass import (
    ALL,
    ComplexUniverse,
    Eps1Universe,
    _window_complexes,
    ann,
    module_universe,
    parse_class_spec,
)

RINGS = [2, 3, 4, 6, 8, 9]


def old_all_differential_tuples(comps: list):
    arrows = []
    for k in range(len(comps) - 1):
        hm = hom_module(comps[k], comps[k + 1])
        arrows.append((k, [hm.decode(e) for e in hm.module.elements()]))
    if not arrows:
        yield {}
        return
    for combo in iproduct(*(choices for _, choices in arrows)):
        if all(combo[i + 1].compose(combo[i]).is_zero() for i in range(len(combo) - 1)):
            yield {arrows[i][0]: combo[i] for i in range(len(combo))}


def old_window(ring, bound: int, window) -> list:
    """Every complex on the window, all-zero component tuples included."""
    lo, hi = window
    degs = list(range(lo, hi + 1))
    out = []
    for combo in iproduct(module_universe(ring, bound).members, repeat=len(degs)):
        for diffs in old_all_differential_tuples(list(combo)):
            comps = {degs[i]: combo[i] for i in range(len(degs))}
            shifted = {degs[i]: d for i, d in diffs.items()}
            out.append(Complex(ring, comps, shifted, check=False))
    return out


def old_complex_members(cu: ComplexUniverse) -> list:
    seen, keys = [], set()

    def push(c):
        if c.canonical_key() not in keys:
            keys.add(c.canonical_key())
            seen.append(c)

    push(zero_complex(cu.ring))
    for c in old_window(cu.ring, cu.full_bound, cu.full_window):
        push(c)
    for m in module_universe(cu.ring, cu.disk_bound).members:
        if m.is_zero():
            continue
        for k in cu.disk_degrees:
            push(disk(k, m))
            push(sphere(k, m))
        push(sphere(cu.disk_degrees[-1] + 1, m))
    return seen


def old_eps1_members(eu: Eps1Universe) -> list:
    return [zero_complex(eu.ring)] + [
        c for c in old_window(eu.ring, eu.base_bound, eu.window)
        if not c.is_zero() and eu._qualifies(c)]


def keys(complexes: list) -> list:
    return [c.canonical_key() for c in complexes]


@pytest.mark.parametrize("n", RINGS)
@pytest.mark.parametrize("lo", [-1, 0])
def test_complex_universe_members_match(n, lo):
    # the CLI's complex universes enumerate two degrees fully, from the
    # input's lowest degree, with components of at most four elements
    cu = ComplexUniverse(Zmod(n), full_bound=4, full_window=(lo, lo + 1), disk_bound=4,
                         disk_degrees=(lo - 1, lo, lo + 1))
    assert keys(cu.members) == keys(old_complex_members(cu))


@pytest.mark.parametrize("n", RINGS)
@pytest.mark.parametrize("window", [(0, 1), (-1, 0), (-1, 1)])
def test_eps1_universe_members_match(n, window):
    # `--window w` gives the window (-1, w - 2); the default w is 3, and
    # one-degree windows (w = 1) are refused
    for x in (ALL, ann(2)):
        eu = Eps1Universe(Zmod(n), x, base_bound=4, window=window)
        assert keys(eu.members) == keys(old_eps1_members(eu))


@pytest.mark.parametrize("n", RINGS)
def test_four_degree_window_matches(n):
    # the widest window `--window 5` allows; the exactness filter on top is
    # the same on both sides, so the enumerations are compared directly
    ring = Zmod(n)
    assert keys(_window_complexes(ring, 4, (-1, 2))) == \
        keys(c for c in old_window(ring, 4, (-1, 2)) if not c.is_zero())


# Z/8 at base bound 8, where 490 of the 36,226 nonzero complexes with
# d o d = 0 are exact, and Z/4 on the widest window
EXACT_WALKS = [(8, 8, (-1, 1)), (4, 4, (-1, 2))]


@pytest.mark.parametrize("n,bound,window", EXACT_WALKS)
def test_the_exact_walk_is_the_unpruned_walk_filtered(n, bound, window):
    ring = Zmod(n)
    unpruned = list(_window_complexes(ring, bound, window))
    degrees = range(window[0], window[1] + 1)
    exact = keys(c for c in unpruned if exact_at(c, degrees))
    assert 0 < len(exact) < len(unpruned)
    assert keys(_window_complexes(ring, bound, window, exact=True)) == exact
    for x in (ALL, ann(2), parse_class_spec("pred:2|4")):
        eu = Eps1Universe(ring, x, base_bound=bound, window=window)
        assert keys(eu.members) == \
            keys([zero_complex(ring)] + [c for c in unpruned if eu._qualifies(c)])
