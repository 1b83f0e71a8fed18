"""eps1-perp and dg against the checkers that built every hom complex.

``old_eps1_perp_homotopy`` is an earlier eps1-perp body, kept as the
oracle: it built Hom(E, C) for every member E and asked ``exact_at`` at
degree s + 1 for every slide s.  ``old_dg_verdict`` is an earlier dg body:
it built Hom(E, C) (injective) or Hom(C, E) (projective) for every member
and ran ``is_exact`` on it.  Both checkers now take a contractible member
(``Eps1Universe.contraction``) as exact without building a hom complex, and
build the hom complex of every other member once per check
(``lifting._member_hom``): eps1-perp reads the least degree where it is not
exact, dg reads ``exact_at`` over it and, for a counterexample, the
homology off the same complex.  They must return the same ``holds``,
``checked``, universe, witnesses and counterexample (the dg homology
included), with witnesses on and off, right after ``clear_caches()`` and
again on the same universes; also for a ``pred:`` class, on the wider
window (-1, 2), and on the universes of mostly split members over Z/2, Z/4,
Z/6, Z/8, Z/12 and Z/9 (base bound 9).
"""
from __future__ import annotations

import pytest

from homkit import clear_caches, lifting
from homkit.complexes import (
    chain_map_group,
    disk,
    exact_at,
    hom_complex_data,
    is_exact,
    shift,
    sphere,
)
from homkit.construct import fixture_injective_components_not_injective_complex
from homkit.exactalg import Zmod
from homkit.lifting import (
    Verdict,
    dg_x_injective,
    dg_x_projective,
    eps1_perp_homotopy,
    x_injective_module,
    x_projective_module,
)
from homkit.modules import FpModule, injective_hull
from homkit.xclass import (
    ALL,
    ZERO_ONLY,
    UniverseCapError,
    _window_complexes,
    ann,
    eps1_universe,
    module_universe,
    parse_class_spec,
)

from .helpers import contractible_by_retractions, first_non_nullhomotopic


def old_eps1_perp_homotopy(i, eu, keep_witnesses: bool) -> Verdict:
    verdict = Verdict(True, eu.describe() + ", closed under shifts")
    for e_cx in eu.members:
        hom = hom_complex_data(e_cx, i).complex
        base = shift(e_cx, -1)
        if e_cx.is_zero() or i.is_zero():
            slides = range(1)
        else:
            (blo, bhi), (ilo, ihi) = base.support, i.support
            slides = range(ilo - bhi, ihi - blo + 2)
        for s in slides:
            verdict.checked += 1
            if exact_at(hom, (s + 1,)):
                if keep_witnesses:
                    verdict.witnesses.append({
                        "kind": "perp", "member": e_cx,
                        "position": shift(base, -s).support, "h0_trivial": True,
                    })
                continue
            src = shift(base, -s)
            g = first_non_nullhomotopic(src, i)
            if g is None:
                size = chain_map_group(src, i).module.size()
                raise UniverseCapError(f"{size} chain maps from {src.describe()}")
            verdict.holds = False
            verdict.counterexample = {"kind": "perp", "member": e_cx, "map": g}
            return verdict
    return verdict


def old_dg_verdict(i, x, eu, mu, keep_witnesses: bool, injective: bool) -> Verdict:
    component_test = x_injective_module if injective else x_projective_module
    verdict = Verdict(True, f"{eu.describe()}; components over {mu.describe()}")
    for k in i.degrees():
        comp_verdict = component_test(i.component(k), x, mu, keep_witnesses=False)
        verdict.checked += 1
        if not comp_verdict.holds:
            verdict.holds = False
            verdict.counterexample = {"kind": "component", "degree": k,
                                      "inner": comp_verdict.counterexample}
            return verdict
    for e_cx in eu.members:
        data = hom_complex_data(e_cx, i) if injective else hom_complex_data(i, e_cx)
        rep = is_exact(data.complex)
        verdict.checked += 1
        if not rep.exact:
            verdict.holds = False
            verdict.counterexample = {"kind": "hom-not-exact", "member": e_cx,
                                      "homology": rep.homology}
            return verdict
        if keep_witnesses:
            verdict.witnesses.append({"kind": "hom-exact", "member": e_cx})
    return verdict


def record(v: Verdict, keep_witnesses: bool = True) -> tuple:
    # the old bodies differed with and without witnesses only in the list
    witnesses = v.witnesses if keep_witnesses else []
    return v.holds, v.checked, v.universe, witnesses, v.counterexample


def injective_modules(ring) -> list:
    return [m for m in module_universe(ring, 8).members
            if not m.is_zero() and injective_hull(m)[0] == m]


def inputs(n: int) -> list:
    ring = Zmod(n)
    out = list(_window_complexes(ring, 4, (0, 1)))
    out += [f(k, m) for m in injective_modules(ring) for k in (0, 1) for f in (disk, sphere)]
    if n == 4:
        out.append(fixture_injective_components_not_injective_complex())
    return out


def dg_classes(n: int) -> tuple:
    """The dg component classes.  Every bounded complex of injective modules
    has exact hom complexes, so under ALL the hom stage never fails; under
    ZERO_ONLY every component passes and the hom stage runs on every complex.
    Over Z/6 every module is injective, so ALL already does that."""
    return (ALL,) if n == 6 else (ALL, ZERO_ONLY)


def new_answers(cases, classes) -> dict:
    out = {}
    for idx, (c, eu, mu) in enumerate(cases):
        for w in (True, False):
            out[idx, "eps1", w] = record(eps1_perp_homotopy(c, eu, keep_witnesses=w))
            for x in classes:
                for side, check in (("inj", dg_x_injective), ("proj", dg_x_projective)):
                    out[idx, side, x.key(), w] = record(check(c, x, eu, mu, keep_witnesses=w))
    return out


def old_answers(cases, classes) -> dict:
    out = {}
    for idx, (c, eu, mu) in enumerate(cases):
        v = old_eps1_perp_homotopy(c, eu, True)
        for x in classes:
            for side in ("inj", "proj"):
                d = old_dg_verdict(c, x, eu, mu, True, side == "inj")
                for w in (True, False):
                    out[idx, side, x.key(), w] = record(d, w)
        for w in (True, False):
            out[idx, "eps1", w] = record(v, w)
    return out


@pytest.mark.parametrize("n", [4, 6, 8])
def test_eps1_and_dg_match_the_per_slide_and_rebuilt_hom_oracles(n):
    ring = Zmod(n)
    mu = module_universe(ring, 8)
    cases = [(c, eps1_universe(ring, x), mu) for x in (ALL, ann(2)) for c in inputs(n)]
    clear_caches()
    cold = new_answers(cases, dg_classes(n))
    warm = new_answers(cases, dg_classes(n))
    old = old_answers(cases, dg_classes(n))
    assert cold == old
    assert warm == old
    outcomes = {(key[1:], ans[0], (ans[4] or {}).get("kind")) for key, ans in old.items()}
    # every checker passes somewhere; over Z/4 and Z/8 eps1 fails somewhere
    # and dg fails at a component (under ALL) and at a member (under
    # ZERO_ONLY), while over Z/6 every complex is one of injectives
    hom_class = dg_classes(n)[-1].key()
    for check in (("eps1", True), ("inj", hom_class, True), ("proj", hom_class, True)):
        assert (check, True, None) in outcomes
    assert ((("eps1", True), False, "perp") in outcomes) == (n != 6)
    for side in ("inj", "proj"):
        assert (((side, "all", True), False, "component") in outcomes) == (n != 6)
        assert (((side, "zero", True), False, "hom-not-exact") in outcomes) == (n != 6)


# a ``pred:`` class: the cyclic modules (and zero)
CYCLIC = parse_class_spec("pred:[0-9]+")


def test_a_pred_class_and_a_wider_window_match_the_oracles():
    """From a universe's second check on, eps1-perp and dg read one answer
    per isomorphism class of members, which needs class membership to be
    invariant under isomorphism: so also for a ``pred:`` class (the
    universe's class and a dg component class), and on the window (-1, 2),
    whose 133 members fall into 27 classes."""
    ring = Zmod(4)
    mu = module_universe(ring, 8)
    z2, z4 = FpModule(ring, (2,)), FpModule(ring, (4,))
    cyclic, wide = eps1_universe(ring, CYCLIC), eps1_universe(ring, ALL, window=(-1, 2))
    few = [disk(0, z4), disk(1, z4), sphere(0, z2), sphere(1, z4),
           fixture_injective_components_not_injective_complex()]
    cases = [(c, cyclic, mu) for c in inputs(4)] + [(c, wide, mu) for c in few]
    classes = (ZERO_ONLY, CYCLIC)
    clear_caches()
    cold = new_answers(cases, classes)
    warm = new_answers(cases, classes)
    old = old_answers(cases, classes)
    assert cold == old
    assert warm == old
    assert len(wide.members) == 133
    for eu in (cyclic, wide):
        outcomes = {(ans[0], (ans[4] or {}).get("kind")) for key, ans in old.items()
                    if key[1] == "eps1" and cases[key[0]][1] is eu}
        assert outcomes == {(True, None), (False, "perp")}
    outcomes = {(key[1:3], ans[0], (ans[4] or {}).get("kind")) for key, ans in old.items()}
    for side in ("inj", "proj"):
        assert ((side, CYCLIC.key()), True, None) in outcomes
        assert ((side, CYCLIC.key()), False, "component") in outcomes
        assert ((side, "zero"), False, "hom-not-exact") in outcomes


def test_dg_builds_one_hom_complex_per_member_that_is_not_contractible(monkeypatch):
    """A passing dg check builds Hom(E, C) for the one member of Z/4's
    universe that is not contractible and none for the 22 others; a failing
    one builds its counterexample's once and reads the homology off it."""
    ring = Zmod(4)
    eu, mu = eps1_universe(ring, ALL), module_universe(ring, 8)
    z2, z4 = FpModule(ring, (2,)), FpModule(ring, (4,))
    unsplit = [e for e in eu.members if not contractible_by_retractions(e)]
    assert (len(eu.members), len(unsplit)) == (23, 1)
    built = []

    def counting(x, y, degrees=None):
        built.append((x, y))
        return hom_complex_data(x, y, degrees)

    clear_caches()
    cases = ((disk(0, z4), ALL, True), (sphere(0, z4), ALL, True),
             (fixture_injective_components_not_injective_complex(), ALL, True),
             (sphere(0, z2), ZERO_ONLY, False))
    for c, x, passes in cases:
        built.clear()
        with monkeypatch.context() as patch:
            patch.setattr(lifting, "hom_complex_data", counting)
            v = dg_x_injective(c, x, eu, mu)
        assert v.holds == passes
        if passes:
            assert built == [(e, c) for e in unsplit]
        else:
            assert v.counterexample["kind"] == "hom-not-exact"
            assert built == [(v.counterexample["member"], c)]
            assert any(v.counterexample["homology"].values())


# (modulus, base bound, window) of exactness universes whose members are
# almost all split; each check answers a contractible member without a hom
# complex, and the oracles still build one for every member
SPLIT_UNIVERSES = [(2, 4, (-1, 1)), (4, 4, (-1, 1)), (6, 4, (-1, 1)), (8, 4, (-1, 1)),
                   (12, 4, (-1, 1)), (9, 9, (-1, 1)), (4, 4, (-1, 2))]


def split_inputs(ring) -> list:
    """A disk and spheres in degrees 0 and 1 on the smallest nonzero module
    and on the free module of rank one."""
    small = next(m for m in module_universe(ring, 8).members if not m.is_zero())
    free = FpModule(ring, (ring.modulus,))
    return [disk(0, small), sphere(0, small), sphere(1, small), disk(0, free), sphere(0, free)]


@pytest.mark.parametrize("n,bound,window", SPLIT_UNIVERSES,
                         ids=[f"Z/{n}-base{b}-{list(w)}" for n, b, w in SPLIT_UNIVERSES])
def test_contractible_members_answer_as_their_hom_complexes_do(n, bound, window):
    """The oracles build Hom(E, C) and Hom(C, E) for every member; the
    checkers build none for a contractible member.  Under ALL and ann(2),
    with witnesses on and off, on a universe's first check and on later
    ones, the verdicts must be the same; a failing verdict names a member
    that is not contractible (by ``contractible_by_retractions``)."""
    ring = Zmod(n)
    mu = module_universe(ring, 8)
    cases = [(c, eps1_universe(ring, x, bound, window), mu)
             for x in (ALL, ann(2)) for c in split_inputs(ring)]
    classes = (ALL, ZERO_ONLY)
    clear_caches()
    cold = new_answers(cases, classes)
    warm = new_answers(cases, classes)
    old = old_answers(cases, classes)
    assert cold == old
    assert warm == old
    failures = [(key[1], ans[4]["member"]) for key, ans in old.items()
                if (ans[4] or {}).get("kind") in ("perp", "hom-not-exact")]
    assert not any(contractible_by_retractions(e) for _, e in failures)
    # over Z/2 and Z/6 every member is contractible
    assert {side for side, _ in failures} == (set() if n in (2, 6) else {"eps1", "inj", "proj"})
