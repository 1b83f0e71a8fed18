"""Exactness-universe checks read each member itself, on every check.

A check answers a contractible member with no hom complex
(``Eps1Universe.contraction``) and builds the hom complex of every other
member once, in member order, whether it is the universe's first check or a
later one: Hom(E, C) for eps1-perp and dg-injective, Hom(C, E) for
dg-projective.  No partition of the members into isomorphism classes and no
memo between checks is kept, so a later check gives the first one's
``holds``, ``checked``, witnesses and counterexample, no check tests an
isomorphism of complexes, and a passing eps1-perp check with witnesses
builds no shifted complex.
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
from homkit.xclass import ALL, ZERO_ONLY, ann, eps1_universe, module_universe

from .helpers import contractible_by_retractions


def recording(monkeypatch) -> list:
    """The (source, target) of every hom complex ``lifting`` builds."""
    built = []
    build = lifting.hom_complex_data

    def recorded(x, y, degrees=None):
        built.append((x, y))
        return build(x, y, degrees)

    monkeypatch.setattr(lifting, "hom_complex_data", recorded)
    return built


@pytest.mark.parametrize("check", ["eps1-perp", "dg-injective", "dg-projective"])
def test_every_check_builds_one_hom_complex_per_member_that_is_not_contractible(
        check, monkeypatch):
    """On the window (-1, 2), 9 of the 133 members are not contractible.
    Hom(E, C) and Hom(C, E) are exact or not alike on every pair these
    universes and inputs give, so a check that read the other direction
    would return the same verdicts: the pairs built are compared here, on
    the universe's first check and on later ones."""
    ring = Zmod(4)
    c = disk(0, FpModule(ring, (4,)))      # contractible: every check passes
    caches.clear_caches()
    eu = eps1_universe(ring, ALL, window=(-1, 2))
    unsplit = [e for e in eu.members if not contractible_by_retractions(e)]
    assert (len(eu.members), len(unsplit)) == (133, 9)
    built = recording(monkeypatch)
    mu = module_universe(ring, 8)
    run = {"eps1-perp": lambda: eps1_perp_homotopy(c, eu),
           "dg-injective": lambda: dg_x_injective(c, ZERO_ONLY, eu, mu),
           "dg-projective": lambda: dg_x_projective(c, ZERO_ONLY, eu, mu)}[check]
    want = [(c, e) if check == "dg-projective" else (e, c) for e in unsplit]
    for _ in range(3):
        built.clear()
        v = run()
        assert v.holds and {w["member"] for w in v.witnesses} == set(eu.members)
        assert built == want


# (modulus, class, base bound, window) of universes with members that are
# not contractible, and inputs on which the checks pass and fail
UNIVERSES = [(4, ALL, 4, (-1, 1)), (4, ann(2), 4, (-1, 1)), (8, ALL, 4, (-1, 1)),
             (12, ALL, 4, (-1, 1)), (4, ALL, 4, (-1, 2))]
IDS = [f"Z/{n}-{x.key()}-base{b}-{list(w)}" for n, x, b, w in UNIVERSES]


def checks(n: int, bound: int, window: tuple, x) -> list:
    """Each check of the universe on each input, as a thunk, in one order."""
    ring = Zmod(n)
    small = next(m for m in module_universe(ring, 8).members if not m.is_zero())
    free = FpModule(ring, (n,))
    inputs = [disk(0, free), sphere(0, small), sphere(1, free)]
    if n == 4:
        inputs.append(fixture_injective_components_not_injective_complex())
    mu = module_universe(ring, 8)
    out = []
    for c in inputs:
        out.append(lambda c=c: eps1_perp_homotopy(c, eps1_universe(ring, x, bound, window)))
        for check in (dg_x_injective, dg_x_projective):
            out.append(lambda c=c, check=check: check(
                c, ZERO_ONLY, eps1_universe(ring, x, bound, window), mu))
    return out


def record(v) -> tuple:
    return v.holds, v.checked, v.universe, v.witnesses, v.counterexample


@pytest.mark.parametrize("n,x,bound,window", UNIVERSES, ids=IDS)
def test_a_later_check_answers_as_the_first(n, x, bound, window):
    """Each check run as its universe's first, and all of them run twice
    in a row on one universe, give the same verdicts."""
    first = []
    for run in checks(n, bound, window, x):
        caches.clear_caches()
        first.append(record(run()))
    caches.clear_caches()
    for _ in range(2):
        assert [record(run()) for run in checks(n, bound, window, x)] == first
    outcomes = {(holds, (cex or {}).get("kind")) for holds, _, _, _, cex in first}
    assert {(True, None), (False, "perp"), (False, "hom-not-exact")} <= outcomes


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


@pytest.mark.parametrize("n,x,bound,window", UNIVERSES, ids=IDS)
def test_no_check_tests_an_isomorphism(n, x, bound, window, monkeypatch):
    counts = counting(monkeypatch)
    for _ in range(2):
        for run in checks(n, bound, window, x):
            run()
    assert counts["complex_isomorphic"] == 0


def test_a_passing_check_builds_no_shifted_complex(monkeypatch):
    counts = counting(monkeypatch)
    ring = Zmod(4)
    z4 = FpModule(ring, (4,))
    eu = eps1_universe(ring, ALL, window=(-1, 2))
    for c in (disk(0, z4), sphere(0, z4), disk(0, z4)):
        v = eps1_perp_homotopy(c, eu, keep_witnesses=True)
        assert v.holds and len(v.witnesses) == v.checked
    assert counts == {"complex_isomorphic": 0, "shift": 0}


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
