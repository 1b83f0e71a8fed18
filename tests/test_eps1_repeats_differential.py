"""Exactness universes read one hom-exactness answer per isomorphism class of
members that are not contractible, from their second check on.

``Eps1Universe.representatives`` hands a universe's first check each member
itself and every later check the earliest member isomorphic to it, decided
lazily by ``xclass._Repeats``.  The partition must be the one a brute-force
isomorphism test finds against all earlier members
(``isomorphic_by_brute_force``, which calls neither ``_Repeats`` nor
``complex_isomorphic``), whether the members are asked in order or in
reverse: over Z/2, Z/4, Z/6 and Z/8 under ALL and ann(2), and over Z/4 on
the window (-1, 2).  A check reads no answer for a contractible member,
and a later check reads Hom(E, C) (eps1-perp, dg-injective) or Hom(C, E)
(dg-projective) for the representative E of each other member, in member
order.  A universe's first check builds one hom-exactness answer per member
that is not contractible and tests no isomorphism, a later check builds one
per class of them, a passing eps1-perp check with witnesses
builds no shifted complex, and a command-line check, one check on a fresh
universe, tests no isomorphism.
"""
from __future__ import annotations

import json

import pytest

from homkit import caches, lifting, xclass
from homkit.cli import complex_to_doc, main
from homkit.complexes import disk, sphere
from homkit.construct import fixture_injective_components_not_injective_complex
from homkit.exactalg import Zmod
from homkit.lifting import dg_x_injective, dg_x_projective, eps1_perp_homotopy
from homkit.modules import FpModule
from homkit.xclass import ALL, ZERO_ONLY, Eps1Universe, ann, eps1_universe, module_universe

from .helpers import contractible_by_retractions
from .test_pool_repeat_differential import isomorphic_by_brute_force

# (modulus, class, window) -> (members, isomorphism classes)
UNIVERSES = {
    (2, ALL, (-1, 1)): (18, 6), (4, ALL, (-1, 1)): (23, 9),
    (6, ALL, (-1, 1)): (22, 8), (8, ALL, (-1, 1)): (23, 9),
    (2, ann(2), (-1, 1)): (18, 6), (4, ann(2), (-1, 1)): (19, 7),
    (6, ann(2), (-1, 1)): (18, 6), (8, ann(2), (-1, 1)): (19, 7),
    (4, ALL, (-1, 2)): (133, 27),
}
IDS = [f"Z/{n}-{x.key()}-{list(w)}" for n, x, w in UNIVERSES]


def brute_force_partition(members: list) -> list:
    return [next((r for r in range(i) if isomorphic_by_brute_force(members[r], c)), i)
            for i, c in enumerate(members)]


def second_read(eu: Eps1Universe, order) -> list:
    """The representatives the second check of a fresh universe reads, asked
    in ``order``, listed by member."""
    first = eu.representatives()
    assert [first(i) for i in range(len(eu.members))] == list(range(len(eu.members)))
    rep = eu.representatives()
    got = {i: rep(i) for i in order(range(len(eu.members)))}
    return [got[i] for i in range(len(eu.members))]


@pytest.mark.parametrize("n,x,window", list(UNIVERSES), ids=IDS)
def test_the_partition_is_the_brute_force_one(n, x, window):
    caches.clear_caches()
    eu = Eps1Universe(Zmod(n), x, 4, window)
    want = brute_force_partition(eu.members)
    assert (len(eu.members), len(set(want))) == UNIVERSES[n, x, window]
    assert second_read(eu, list) == want
    caches.clear_caches()
    assert second_read(Eps1Universe(Zmod(n), x, 4, window), reversed) == want


@pytest.mark.parametrize("check", ["eps1-perp", "dg-injective", "dg-projective"])
def test_a_later_check_reads_each_answer_under_the_representative(check, monkeypatch):
    """A check reads no answer for a contractible member, so the window
    (-1, 2), with 9 members that are not contractible in 5 classes, is
    where a later check still reads under representatives.  Hom(E, C) and
    Hom(C, E) are exact or not alike on every pair these universes and
    inputs give, so a check that read the other direction would return the
    same verdicts: the pairs read are compared here."""
    ring = Zmod(4)
    c = disk(0, FpModule(ring, (4,)))      # contractible: every member is read
    caches.clear_caches()
    eu = eps1_universe(ring, ALL, window=(-1, 2))
    members = eu.members
    unsplit = [i for i, e in enumerate(members) if not contractible_by_retractions(e)]
    assert (len(members), len(unsplit)) == (133, 9)
    reps = [members[unsplit[r]] for r in brute_force_partition([members[i] for i in unsplit])]
    assert len(set(reps)) == 5
    assert eps1_perp_homotopy(c, eu).holds      # the first check
    read = []
    answer = lifting._hom_inexact_degree

    def recording(source, target):
        read.append((source, target))
        return answer(source, target)

    monkeypatch.setattr(lifting, "_hom_inexact_degree", recording)
    mu = module_universe(ring, 8)
    run = {"eps1-perp": lambda: eps1_perp_homotopy(c, eu),
           "dg-injective": lambda: dg_x_injective(c, ZERO_ONLY, eu, mu),
           "dg-projective": lambda: dg_x_projective(c, ZERO_ONLY, eu, mu)}[check]
    v = run()
    assert v.holds and {w["member"] for w in v.witnesses} == set(members)
    assert read == [(c, r) if check == "dg-projective" else (r, c) for r in reps]


# -- the work each check does -------------------------------------------------

def counting(monkeypatch) -> dict:
    counts = {"complex_isomorphic": 0, "shift": 0}
    iso, shift = xclass.complex_isomorphic, lifting.shift

    def counted_iso(a, b):
        counts["complex_isomorphic"] += 1
        return iso(a, b)

    def counted_shift(c, k):
        counts["shift"] += 1
        return shift(c, k)

    monkeypatch.setattr(xclass, "complex_isomorphic", counted_iso)
    monkeypatch.setattr(lifting, "shift", counted_shift)
    caches.clear_caches()
    return counts


def hom_exact_entries() -> int:
    return caches.stats()["lifting.hom_exact"]["entries"]


def test_the_partition_is_paid_from_the_second_check_on(monkeypatch):
    """On the window (-1, 2): 9 members that are not contractible, in 5
    classes, each of them read once by the first check."""
    counts = counting(monkeypatch)
    ring = Zmod(4)
    z4 = FpModule(ring, (4,))
    eu = eps1_universe(ring, ALL, window=(-1, 2))
    v = eps1_perp_homotopy(disk(0, z4), eu, keep_witnesses=True)
    assert v.holds and len(v.witnesses) == v.checked
    assert hom_exact_entries() == 9
    assert counts == {"complex_isomorphic": 0, "shift": 0}
    v = eps1_perp_homotopy(sphere(0, z4), eu, keep_witnesses=True)
    assert v.holds and {w["member"] for w in v.witnesses} == set(eu.members)
    assert hom_exact_entries() - 9 == 5
    assert counts["complex_isomorphic"] > 0 and counts["shift"] == 0
    # a third check decides nothing again
    tested = counts["complex_isomorphic"]
    assert dg_x_injective(sphere(1, z4), ALL, eu, module_universe(ring, 8)).holds
    assert hom_exact_entries() - 9 == 10
    assert counts["complex_isomorphic"] == tested


@pytest.mark.parametrize("kind", ["eps1-perp", "dg-injective"])
def test_a_command_line_check_tests_no_isomorphism(kind, monkeypatch, tmp_path, capsys):
    counts = counting(monkeypatch)
    for c in (fixture_injective_components_not_injective_complex(),
              disk(0, FpModule(Zmod(4), (4,)))):
        caches.clear_caches()
        path = tmp_path / "input.json"
        path.write_text(json.dumps(complex_to_doc(c)))
        assert main(["check", kind, str(path)]) in (0, 1)
        assert json.loads(capsys.readouterr().out)["checked"] > 0
    assert counts["complex_isomorphic"] == 0
