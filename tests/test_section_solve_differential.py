"""The one lifting path against the per-type path it replaces.

A lifting instance phi: A -> B, object c, asks whether the restriction
between hom groups (f -> f o phi on the injective side, f -> phi o f on the
projective side) is onto.  ``lifting._onto`` no longer builds that
restriction: ``lifting._restriction_image`` gives its image in the target
group's ambient (Hom^0 for a chain-map group, the hom module itself for a
hom module) with the target's inclusion, the sections are solved against
the inclusion columns, without witnesses a hom module tests the image by
rank and a chain-map group counts its order, and a counterexample is the
last target generator without a section, the first element outside the
image in enumeration order.  The oracle, kept only in ``tests/helpers.py``, is the old path:
the restriction matrix (``chain_group_compose`` for complexes, one
elimination), the canonical preimages of its target generators (a second
elimination), its rank test for the witness-free answer, and the first
element outside it from its own cokernel.  Sections and counterexample
elements must agree bit for bit, "onto" must agree on every path, and the
four complex checkers must give the same verdicts as the old driver loop.
"""
from __future__ import annotations

import pytest

from homkit import lifting
from homkit.complexes import ChainMap, chain_map_group, disk, sphere, zero_complex
from homkit.exactalg import Zmod
from homkit.modules import FpModule, cokernel, hom_module
from homkit.xclass import ALL, ann, default_complex_universe, module_universe

from .helpers import CONFIRM_CAPS, chain_group_compose, confirm_no_preimage, \
    first_outside_image, induced_restriction, section_certificate, \
    solve_in_module_columns_oracle

RINGS = (4, 6, 8, 9)
MODULE_RINGS = (2, 4, 6, 8, 9, 12)


def universe(n: int):
    return default_complex_universe(Zmod(n), (0, 1), full_bound=4, disk_bound=4)


def groups(phi, c, injective: bool, hom=chain_map_group) -> tuple:
    return (hom(phi.target, c), hom(phi.source, c)) if injective \
        else (hom(c, phi.source), hom(c, phi.target))


def oracle_onto(phi, c, injective: bool, hom=chain_map_group) -> tuple:
    """(sections of the restriction matrix, its rank-test answer, the
    matrix)."""
    restr = induced_restriction(phi, c, injective, hom)[0]
    return section_certificate(restr), restr.is_epi(), restr


def new_onto(phi, c, injective: bool, keep: bool, hom=chain_map_group) -> tuple:
    return lifting._onto(phi, c, injective, hom, keep)


POOL_CASES = [pytest.param(n, chain_map_group, id=str(n)) for n in RINGS] + \
    [pytest.param(n, hom_module, id=f"module-{n}") for n in MODULE_RINGS]


@pytest.mark.parametrize("injective", [True, False], ids=["injective", "projective"])
@pytest.mark.parametrize("n,hom", POOL_CASES)
def test_sections_and_onto_match_on_every_pool_pair(n, hom, injective):
    u = universe(n) if hom is chain_map_group else module_universe(Zmod(n), 8)
    pool = u.mono_pool() if injective else u.epi_pool()
    seen = set()
    for phi, _ in pool:
        for c in u.members:
            sections, epi, restr = oracle_onto(phi, c, injective, hom)
            onto = None not in sections
            assert new_onto(phi, c, injective, True, hom) == (onto, sections)
            assert new_onto(phi, c, injective, False, hom)[0] == onto == epi
            if not onto:
                grp_to, image = lifting._restriction_image(phi, c, injective, hom)
                matrix = image.matrix if hom is hom_module else image
                assert lifting._first_outside_image(grp_to._inclusion.target, matrix,
                                                    grp_to._section_columns) == \
                    first_outside_image(cokernel(restr)[1])
            seen.add((onto, bool(sections)))
    # onto with sections, onto a zero group, and not onto all occur, except
    # on module universes where every lifting test passes: over the
    # semisimple Z/2 and Z/6, and over Z/9, whose members are 0 and Z/3
    passing = hom is hom_module and n in (2, 6, 9)
    assert seen == {(True, True), (True, False)} | (set() if passing else {(False, True)})


def test_zero_cycle_groups():
    ring = Zmod(4)
    z, s = zero_complex(ring), sphere(0, FpModule(ring, (2,)))
    # phi: 0 -> s.  Injective side: the target group Hom(0, s) is zero, so
    # the restriction is onto with no sections.  Projective side, object s:
    # Hom(s, 0) is zero and Hom(s, s) is not, so it is not onto.
    phi = ChainMap.zero(z, s)
    assert chain_map_group(z, s)._inclusion is None
    for keep in (True, False):
        assert new_onto(phi, s, True, keep) == (True, [])
        assert new_onto(phi, s, False, keep)[0] is False
        assert oracle_onto(phi, s, True)[:2] == ([], True)
        assert oracle_onto(phi, s, False)[1] is False


def old_lifting_verdict(obj, x, u, pool, injective, keep_witnesses, *, level, hom,
                        member, finish=None):
    """The complex driver loop as it was: the restriction matrix of every
    tested map, its sections or its rank test, and its cokernel for a
    counterexample."""
    side, role, part = ("extension", "mono", "cokernel") if injective \
        else ("lift", "epi", "kernel")
    kind = f"{level}-{side}"
    verdict = lifting.Verdict(True, u.describe() + f", class={x.key()}")
    # every entry of every block, a repeat block's too
    for phi, quotient in (entry for _, block in pool() for entry in block):
        if not member(x, quotient):
            continue
        grp_from, grp_to = groups(phi, obj, injective, hom)
        restr = chain_group_compose(grp_from, grp_to, phi, pre=injective)
        fn = (lambda f: f.compose(phi)) if injective else phi.compose
        verdict.checked += 1
        if keep_witnesses:
            n = restr.target.ngens
            sections = solve_in_module_columns_oracle(
                restr.target, restr.matrix, [[int(r == g) for r in range(n)] for g in range(n)])
            onto = None not in sections
        else:
            onto = restr.is_epi()
        if onto:
            if keep_witnesses:
                verdict.witnesses.append({"kind": kind, role: phi, part: quotient,
                                          "section": sections})
            continue
        _, proj = cokernel(restr)
        f = grp_to.decode(first_outside_image(proj))
        confirm_no_preimage(grp_from, fn, f, CONFIRM_CAPS[level])
        verdict.holds = False
        verdict.counterexample = {"kind": kind, role: phi, "map": f}
        break
    if finish is not None:
        finish(verdict)
    return verdict


def verdict_record(v) -> tuple:
    return (v.holds, v.checked, v.universe, v.witnesses, v.counterexample, v.extra)


R4, R6, R8 = Zmod(4), Zmod(6), Zmod(8)
COMPLEX_CASES = [(c, x) for c in universe(9).members for x in (ALL, ann(3))] + [
    (sphere(0, FpModule(R4, (2,))), ALL),
    (sphere(0, FpModule(R4, (2, 4))), ALL),
    (disk(0, FpModule(R4, (4,))), ALL),
    (disk(0, FpModule(R4, (2,))), ann(2)),
    (sphere(1, FpModule(R6, (6,))), ALL),
    (disk(-1, FpModule(R6, (3,))), ALL),
    (disk(0, FpModule(R8, (8,))), ALL),
    (sphere(0, FpModule(R8, (4,))), ann(4)),
]


@pytest.mark.parametrize("keep", [True, False], ids=["witnesses", "verdict-only"])
@pytest.mark.parametrize("check", [lifting.x_injective_complex, lifting.x_projective_complex],
                         ids=["injective", "projective"])
def test_complex_verdicts_match_the_two_solve_loop(check, keep, monkeypatch):
    holds = set()
    for c, x in COMPLEX_CASES:
        cu = default_complex_universe(c.ring, c.support or (0, 1), full_bound=4, disk_bound=4)
        lifting._VERDICT_CACHE.clear()      # so that the new driver runs
        new = check(c, x, cu, keep_witnesses=keep)
        with monkeypatch.context() as m:
            m.setattr(lifting, "_lifting_verdict", old_lifting_verdict)
            old = check(c, x, cu, keep_witnesses=keep)
        assert verdict_record(new) == verdict_record(old)
        holds.add(new.holds)
    assert holds == {True, False}


def counting_solves(monkeypatch) -> tuple:
    """The maps whose cokernel ``lifting`` takes (none: a counterexample is
    read off the sections) and the image matrices it solves sections
    against, recorded as it runs."""
    cokernels, images = [], []
    solve = lifting._solve_in_module_columns

    def counting_cokernel(f):
        cokernels.append(f)
        return cokernel(f)

    def counting_solve(target, mat, columns):
        images.append(mat)
        return solve(target, mat, columns)

    monkeypatch.setattr(lifting, "cokernel", counting_cokernel)
    monkeypatch.setattr(lifting, "_solve_in_module_columns", counting_solve)
    lifting._VERDICT_CACHE.clear()
    return cokernels, images


def assert_one_solve_on_failure(check, holding, failing, u, hom, keep, monkeypatch):
    """Without witnesses a passing check solves no sections and a failing one
    solves them once, for its counterexample; with witnesses the last solve
    is the counterexample's.  Neither takes a cokernel."""
    cokernels, images = counting_solves(monkeypatch)
    v = check(holding, ALL, u(holding), keep_witnesses=keep)
    assert v.holds and v.checked > 0 and cokernels == []
    assert keep or images == []
    del images[:]
    v = check(failing, ALL, u(failing), keep_witnesses=keep)
    image = lifting._restriction_image(v.counterexample["mono"], failing, True, hom)[1]
    image = image.matrix if hom is hom_module else image
    assert not v.holds and cokernels == []
    assert images[-1] == image and (keep or images == [image])


@pytest.mark.parametrize("keep", [True, False], ids=["witnesses", "verdict-only"])
def test_complex_counterexample_takes_no_cokernel(keep, monkeypatch):
    assert_one_solve_on_failure(
        lifting.x_injective_complex, disk(0, FpModule(R4, (4,))), sphere(0, FpModule(R4, (2, 4))),
        lambda c: default_complex_universe(R4, c.support, full_bound=4, disk_bound=4),
        chain_map_group, keep, monkeypatch)


@pytest.mark.parametrize("keep", [True, False], ids=["witnesses", "verdict-only"])
def test_module_counterexample_takes_no_cokernel(keep, monkeypatch):
    u = module_universe(R4, 8)
    assert_one_solve_on_failure(
        lifting.x_injective_module, FpModule(R4, (4,)), FpModule(R4, (2,)), lambda m: u,
        hom_module, keep, monkeypatch)
