"""The one-elimination section solve against the two-solve path it replaces.

A complex lifting instance phi: A -> B, object c, asks whether the restriction
between chain-map groups (f -> f o phi on the injective side, f -> phi o f on
the projective side) is onto.  ``lifting._onto`` no longer builds that
restriction: it solves the composites of the source group's cycle generators,
written in the target group's Hom^0 coordinates (``chain_group_image``),
against the target group's cycle inclusion, and without witnesses
it counts the image order.  The oracle, kept only here, is the old path:
the restriction matrix from ``chain_group_compose`` (one elimination), the
canonical preimages of its target generators (a second elimination), and
its rank test for the witness-free answer.  Sections must agree bit for
bit, "onto" must agree on every path, and the four complex checkers must
give the same verdicts as the old driver loop.
"""
from __future__ import annotations

import pytest

from homkit import lifting
from homkit.complexes import ChainMap, chain_group_compose, chain_map_group, disk, sphere, \
    zero_complex
from homkit.exactalg import Zmod
from homkit.modules import FpModule, _solve_in_module_columns, cokernel
from homkit.xclass import ALL, ann, default_complex_universe

RINGS = (4, 6, 8, 9)


def universe(n: int):
    return default_complex_universe(Zmod(n), (0, 1), full_bound=4, disk_bound=4)


def groups(phi, c, injective: bool, hom=chain_map_group) -> tuple:
    return (hom(phi.target, c), hom(phi.source, c)) if injective \
        else (hom(c, phi.source), hom(c, phi.target))


def oracle_onto(phi, c, injective: bool) -> tuple:
    """(sections of the restriction matrix, its rank-test answer)."""
    grp_from, grp_to = groups(phi, c, injective)
    restr = chain_group_compose(grp_from, grp_to, phi, pre=injective)
    n = restr.target.ngens
    units = [[1 if r == g else 0 for r in range(n)] for g in range(n)]
    return _solve_in_module_columns(restr.target, restr.matrix, units), restr.is_epi()


def new_onto(phi, c, injective: bool, keep: bool) -> tuple:
    return lifting._onto(phi, c, injective, chain_map_group, keep)


@pytest.mark.parametrize("injective", [True, False], ids=["injective", "projective"])
@pytest.mark.parametrize("n", RINGS)
def test_sections_and_onto_match_on_every_pool_pair(n, injective):
    cu = universe(n)
    pool = cu.mono_pool() if injective else cu.epi_pool()
    seen = set()
    for phi, _ in pool:
        for c in cu.members:
            sections, epi = oracle_onto(phi, c, injective)
            onto = None not in sections
            assert new_onto(phi, c, injective, True) == (onto, sections)
            assert new_onto(phi, c, injective, False)[0] == onto == epi
            seen.add((onto, bool(sections)))
    # onto with sections, onto a zero group, and not onto all occur
    assert seen == {(True, True), (True, False), (False, True)}


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
        assert oracle_onto(phi, s, True) == ([], True)
        assert oracle_onto(phi, s, False)[1] is False


def old_lifting_verdict(obj, x, u, pool, injective, keep_witnesses, *, level, hom,
                        member, cap, finish=None):
    """The complex driver loop as it was: the restriction matrix of every
    tested map, its sections or its rank test, and its cokernel for a
    counterexample."""
    side, role, part = ("extension", "mono", "cokernel") if injective \
        else ("lift", "epi", "kernel")
    kind = f"{level}-{side}"
    verdict = lifting.Verdict(True, u.describe() + f", class={x.key()}")
    for phi, quotient in pool():
        if not member(x, quotient):
            continue
        grp_from, grp_to = groups(phi, obj, injective, hom)
        restr = chain_group_compose(grp_from, grp_to, phi, pre=injective)
        fn = (lambda f: f.compose(phi)) if injective else phi.compose
        verdict.checked += 1
        if keep_witnesses:
            n = restr.target.ngens
            sections = _solve_in_module_columns(
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
        f = grp_to.decode(lifting._first_outside_image(proj))
        lifting._confirm_no_preimage(grp_from, fn, f, cap)
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


@pytest.mark.parametrize("keep", [True, False], ids=["witnesses", "verdict-only"])
def test_restriction_matrix_is_built_only_on_failure(keep, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[2])
        return chain_group_compose(*args, **kwargs)

    monkeypatch.setattr(lifting, "chain_group_compose", counting)
    lifting._VERDICT_CACHE.clear()
    holding = disk(0, FpModule(R4, (4,)))
    cu = default_complex_universe(R4, holding.support, full_bound=4, disk_bound=4)
    v = lifting.x_injective_complex(holding, ALL, cu, keep_witnesses=keep)
    assert v.holds and v.checked > 0 and calls == []
    failing = sphere(0, FpModule(R4, (2, 4)))
    cu = default_complex_universe(R4, failing.support, full_bound=4, disk_bound=4)
    v = lifting.x_injective_complex(failing, ALL, cu, keep_witnesses=keep)
    assert not v.holds and calls == [v.counterexample["mono"]]
