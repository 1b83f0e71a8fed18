"""Contractible members of an exactness universe answer hom-exactness
without a hom complex.

``Eps1Universe.contraction`` decides once per member, at the first check
that reads it, whether the member is contractible: one ``null_homotopy`` of
its identity.  A contraction h of E (id = dh + hd) contracts Hom(E, C) and
Hom(C, E), so eps1-perp and the dg checks take such a member as exact in
every degree.  The decision must be the one ``contractible_by_retractions``
makes, which solves no system: a bounded exact complex is contractible iff
each cycle inclusion has a retraction, searched among all maps.  The checks
must refuse a complex over another ring than the universe's, as they did
when every member built a hom, and do the work counted below.
"""
from __future__ import annotations

from collections import Counter

import pytest

from homkit import caches, lifting, xclass
from homkit.complexes import disk, sphere
from homkit.exactalg import Zmod
from homkit.lifting import dg_x_injective, dg_x_projective, eps1_perp_homotopy
from homkit.modules import FpModule, ModuleError
from homkit.xclass import ALL, Eps1Universe, ann, eps1_universe

from .helpers import contractible_by_retractions

# (modulus, base bound, window) -> (members, contractible members) under ALL
UNIVERSES = {
    (2, 4, (-1, 1)): (18, 18), (4, 4, (-1, 1)): (23, 22), (6, 4, (-1, 1)): (22, 22),
    (8, 4, (-1, 1)): (23, 22), (12, 4, (-1, 1)): (27, 26), (9, 9, (-1, 1)): (133, 129),
    (4, 4, (-1, 2)): (133, 124),
}


@pytest.mark.parametrize("n,bound,window", list(UNIVERSES),
                         ids=[f"Z/{n}-base{b}-{list(w)}" for n, b, w in UNIVERSES])
def test_contraction_agrees_with_the_retraction_oracle(n, bound, window):
    for x in (ALL, ann(2)):
        eu = Eps1Universe(Zmod(n), x, bound, window)
        want = [contractible_by_retractions(e) for e in eu.members]
        got = [eu.contraction(i) for i in range(len(eu.members))]
        assert [h is not None for h in got] == want
        assert all(h.verifies() for h in got if h is not None)
        if x is ALL:
            assert (len(want), sum(want)) == UNIVERSES[n, bound, window]


def counting(monkeypatch) -> tuple:
    """Cold caches, and lists of the identities solved for a contraction
    and of the hom complexes ``lifting`` builds."""
    solved, built = [], []
    solve, build = xclass.null_homotopy, lifting.hom_complex_data

    def counted_solve(f):
        solved.append(f.source)
        return solve(f)

    def counted_build(x, y, degrees=None):
        built.append((x, y))
        return build(x, y, degrees)

    monkeypatch.setattr(xclass, "null_homotopy", counted_solve)
    monkeypatch.setattr(lifting, "hom_complex_data", counted_build)
    caches.clear_caches()
    return solved, built


def test_a_universe_of_contractible_members_builds_no_hom(monkeypatch):
    solved, built = counting(monkeypatch)
    ring = Zmod(6)
    eu = eps1_universe(ring, ALL)
    for c in (disk(0, FpModule(ring, (6,))), sphere(0, FpModule(ring, (2,)))):
        assert eps1_perp_homotopy(c, eu).holds
        assert dg_x_injective(c, ALL, eu).holds
        assert dg_x_projective(c, ALL, eu).holds
    assert built == []
    assert Counter(solved) == Counter(eu.members)


def test_each_passing_check_reads_the_one_member_that_is_not_contractible(monkeypatch):
    solved, built = counting(monkeypatch)
    ring = Zmod(4)
    z4 = FpModule(ring, (4,))
    eu = eps1_universe(ring, ALL)
    e, = (m for m in eu.members if not contractible_by_retractions(m))
    checks = [lambda: eps1_perp_homotopy(disk(0, z4), eu),
              lambda: dg_x_injective(disk(1, z4), ALL, eu),
              lambda: dg_x_projective(disk(0, z4), ALL, eu),
              lambda: eps1_perp_homotopy(sphere(0, z4), eu, keep_witnesses=False)]
    for check in checks:
        assert check().holds
    assert built == [(e, disk(0, z4)), (e, disk(1, z4)), (disk(0, z4), e), (e, sphere(0, z4))]
    # one contractibility solve per member, however many checks read it
    assert Counter(solved) == Counter(eu.members)


@pytest.mark.parametrize("check", ["eps1-perp", "dg-injective", "dg-projective"])
def test_a_complex_over_another_ring_is_refused(check):
    """Every member over Z/6 is contractible, so no hom would refuse the
    mixed rings: the checks test the ring first."""
    caches.clear_caches()
    c = disk(0, FpModule(Zmod(4), (4,)))
    eu = eps1_universe(Zmod(6), ALL)
    run = {"eps1-perp": lambda: eps1_perp_homotopy(c, eu),
           "dg-injective": lambda: dg_x_injective(c, ALL, eu),
           "dg-projective": lambda: dg_x_projective(c, ALL, eu)}[check]
    with pytest.raises(ModuleError, match="mixed rings in hom"):
        run()
