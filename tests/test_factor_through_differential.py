"""One chain-map factoring solver: ``complexes._factor_through``.

It finds the canonical chain map g with g o phi = f (or phi o g = f) for
every f of a list with one ``MapSystem`` elimination, and serves the
retractions of ``splits`` and ``summand_retraction``, the lifts and
extensions of ``hom_exactness`` and the confirmation of every lifting
counterexample.  The oracles are the paths it replaces, kept only as tests:
``helpers.old_retraction``, the retraction system ``splits`` solved before,
and ``helpers.confirm_no_preimage``, the enumeration of the source hom group
that confirmed a counterexample only up to 2^16 (modules) or 2^14 (chain
maps) elements and never over Z.
"""
from __future__ import annotations

import pytest

from homkit import lifting
from homkit.complexes import ChainMap, _factor_through, chain_map_group
from homkit.exactalg import ZZ, Zmod
from homkit.modules import FpModule, MapSystem, hom_module
from homkit.xclass import ALL, default_complex_universe, module_universe

from .helpers import CONFIRM_CAPS, confirm_no_preimage, old_retraction
from .test_block_sum_differential import COMPLEX_CASES, INTEGER_POOLS, MODULE_CASES, \
    both_verdicts, verdict_record


@pytest.mark.parametrize("n", [4, 6, 8])
def test_retractions_match_the_old_retraction_system(n):
    pool = default_complex_universe(Zmod(n), None).mono_pool()
    split = 0
    for phi, _ in pool[::3]:
        got = _factor_through(phi, [ChainMap.identity(phi.source)], True)[0]
        assert got == old_retraction(phi.source, phi.target, phi)
        split += got is not None
    # the sample holds split and non-split injections
    assert 0 < split < len(pool[::3])


def sample(grp, decode) -> list:
    """Zero, the generators of a hom group, their sum and twice the first,
    decoded."""
    n = grp.module.ngens
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    extra = [tuple(1 for _ in range(n)), tuple(2 * int(i == 0) for i in range(n))] if n else []
    return [decode(grp.module.reduce_element(e)) for e in [(0,) * n] + units + extra]


def assert_factors(phi, hs, injective: bool) -> int:
    """Solve for every f = h o phi (``injective``) or f = phi o h and check
    that each is solved by a g with g o phi = f (phi o g = f)."""
    fs = [h.compose(phi) if injective else phi.compose(h) for h in hs]
    chain = isinstance(phi, ChainMap)
    for f, g in zip(fs, _factor_through(phi, fs, injective)):
        assert g is not None
        g = g if chain else g.component(0)
        assert (g.compose(phi) if injective else phi.compose(g)) == f
    return len(fs)


def negative_controls(monos, epis, hom, others) -> int:
    """``assert_factors`` on maps through every mono and epi, with h drawn
    from ``sample`` of its hom group to (from) each of ``others`` and the
    map's own middle object."""
    solved = 0
    for phi in monos:
        for c in others + [phi.target]:
            grp = hom(phi.target, c)
            solved += assert_factors(phi, sample(grp, grp.decode), True)
    for psi in epis:
        for c in others + [psi.source]:
            grp = hom(c, psi.source)
            solved += assert_factors(psi, sample(grp, grp.decode), False)
    return solved


def test_maps_through_module_pools_are_solved():
    u = module_universe(Zmod(4), 8)
    others = [FpModule(Zmod(4), (2, 4))]
    assert negative_controls([phi for phi, _ in u.mono_pool()][::2],
                             [psi for psi, _ in u.epi_pool()][::2], hom_module, others) > 200


def test_maps_through_integer_pools_are_solved():
    others = [FpModule(ZZ, (0,)), FpModule(ZZ, (2, 0))]
    assert negative_controls([phi for phi, _ in INTEGER_POOLS.mono_pool()],
                             [psi for psi, _ in INTEGER_POOLS.epi_pool()],
                             hom_module, others) > 20


@pytest.mark.parametrize("n", [4, 6])
def test_maps_through_complex_pools_are_solved(n):
    cu = default_complex_universe(Zmod(n), None)
    assert negative_controls([phi for phi, _ in cu.mono_pool()][::9],
                             [psi for psi, _ in cu.epi_pool()][::9], chain_map_group, []) > 100


def failing_verdicts() -> list:
    """(phi, counterexample, injective, hom, level) of every failing
    witness-free lifting verdict on the block-sum differential cases."""
    checks = [(lifting.x_injective_module, True), (lifting.x_projective_module, False)]
    cases = [(check, injective, (m, x, u), hom_module, "module")
             for check, injective in checks for m, x, u in MODULE_CASES]
    checks = [(lifting.x_injective_complex, True), (lifting.x_projective_complex, False)]
    cases += [(check, injective,
               (c, x, default_complex_universe(c.ring, c.support, full_bound=4, disk_bound=4)),
               chain_map_group, "complex")
              for check, injective in checks for c, x in COMPLEX_CASES]
    out = []
    for check, injective, args, hom, level in cases:
        lifting._VERDICT_CACHE.clear()
        v = check(*args, keep_witnesses=False)
        if not v.holds:
            cx = v.counterexample
            out.append((cx["mono" if injective else "epi"], cx["map"], injective, hom, level))
    return out


def test_solve_finds_no_preimage_exactly_when_enumeration_does():
    cases = failing_verdicts()
    assert {level for *_, level in cases} == {"module", "complex"}
    for phi, f, injective, hom, level in cases:
        grp_from, grp_to = (hom(phi.target, f.target), hom(phi.source, f.target)) \
            if injective else (hom(f.source, phi.source), hom(f.source, phi.target))
        # the counterexample has no preimage either way
        assert _factor_through(phi, [f], injective) == [None]
        confirm_no_preimage(grp_from, (lambda g: g.compose(phi)) if injective
                            else phi.compose, f, CONFIRM_CAPS[level])
        # and over the whole target group, the solve fails exactly off the image
        image = {g.compose(phi) if injective else phi.compose(g) for g in grp_from.elements()}
        targets = [grp_to.decode(e) for e in grp_to.module.elements()]
        got = [g is None for g in _factor_through(phi, targets, injective)]
        assert got == [t not in image for t in targets]
        assert any(got) and not all(got)


def counting_confirmations(monkeypatch) -> tuple:
    """The (phi, fs) of every ``_factor_through`` call in ``lifting`` from
    now on, and the ``MapSystem.solve_each`` calls as their count."""
    calls, solves = [], [0]
    factor, solve_each = lifting._factor_through, MapSystem.solve_each

    def counted_factor(phi, fs, injective):
        calls.append((phi, fs))
        return factor(phi, fs, injective)

    def counted_solve(self, rhs_sets):
        solves[0] += 1
        return solve_each(self, rhs_sets)

    monkeypatch.setattr(lifting, "_factor_through", counted_factor)
    monkeypatch.setattr(MapSystem, "solve_each", counted_solve)
    return calls, solves


def test_a_confirmation_group_above_the_old_cap_is_solved(monkeypatch):
    ring = Zmod(4)
    p, u = FpModule(ring, (2,) + (4,) * 8), module_universe(ring, 8)
    calls, solves = counting_confirmations(monkeypatch)
    lifting._VERDICT_CACHE.clear()
    new = lifting.x_projective_module(p, ALL, u, keep_witnesses=False)
    assert not new.holds and len(calls) == 1 and len(calls[0][1]) == 1 and solves[0] == 1
    # the old confirmer skipped this group: it has 2^17 elements
    psi = new.counterexample["epi"]
    assert hom_module(p, psi.source).module.size() == 1 << 17 > CONFIRM_CAPS["module"]
    monkeypatch.undo()
    new, old = both_verdicts(monkeypatch, lifting.x_projective_module, p, ALL, u,
                             keep_witnesses=False)
    assert verdict_record(new) == verdict_record(old)


@pytest.mark.parametrize("check,m", [(lifting.x_injective_module, FpModule(ZZ, (2,))),
                                     (lifting.x_projective_module, FpModule(ZZ, (4,)))],
                         ids=["injective", "projective"])
def test_a_counterexample_over_z_is_solved(check, m, monkeypatch):
    calls, solves = counting_confirmations(monkeypatch)
    lifting._VERDICT_CACHE.clear()
    v = check(m, ALL, INTEGER_POOLS, keep_witnesses=False)
    assert not v.holds and len(calls) == 1 and solves[0] == 1
    assert calls[0][1] == [v.counterexample["map"]]


def refuting_solver(monkeypatch) -> None:
    """A factoring solver that claims a g for every f."""
    monkeypatch.setattr(lifting, "_factor_through", lambda phi, fs, injective: [object()] * len(fs))
    lifting._VERDICT_CACHE.clear()


def test_a_refuted_module_counterexample_raises(monkeypatch):
    refuting_solver(monkeypatch)
    m, x, u = MODULE_CASES[0]
    with pytest.raises(AssertionError, match="refuted"):
        lifting.x_injective_module(m, x, u, keep_witnesses=False)


def test_a_refuted_complex_counterexample_raises(monkeypatch):
    refuting_solver(monkeypatch)
    c, x = COMPLEX_CASES[0]
    cu = default_complex_universe(c.ring, c.support, full_bound=4, disk_bound=4)
    with pytest.raises(AssertionError, match="refuted"):
        lifting.x_injective_complex(c, x, cu, keep_witnesses=False)
